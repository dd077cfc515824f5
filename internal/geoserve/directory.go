package geoserve

import "math/bits"

// directory locates an address's answer row in constant time: l1 maps
// the address's /16 to a block, the block maps its /24 to a slot, and
// the slot names the /24's leaf group and the rows of the group's pages
// that hold the /24's prefix row and its first exact address, with a
// bitmap of which hosts are exact. A lookup is three dependent loads
// and, on an exact hit, a popcount; the record is then one more load
// for the page and one for its bytes (Snapshot.record).
//
// Block 0 and slot 0 are shared by everything absent — a /16 with no
// entry points at block 0, whose every /24 points at slot 0, which has
// no prefix row and no exact hosts — so a miss walks the same three
// loads as a hit and no level branches.
//
// The directory is derived from the groups' keys alone (it is not content:
// the digest and both file formats never see it), and the collector
// scans none of it: blocks and slots hold no pointers and l1 lies
// after the last pointer of its struct. Its size is bounded whatever
// the tables hold: 256 KB of l1, 1 KB per distinct /16 (at most 64 MB)
// and one 40-byte slot per distinct /24 (TestDirectoryBound).
type directory struct {
	blocks [][256]uint32
	slots  []dirSlot
	l1     [1 << 16]uint32
}

// dirSlot is what the directory knows about one /24, in 40 bytes. A
// row number is a row of the group's pages: a group is one /20, so it
// holds at most 16 prefix rows and 4 096 exact rows, and both fit 16
// bits.
type dirSlot struct {
	// group is the index of the /24's leaf group.
	group uint32
	// prefix is the /24's prefix row, -1 when the /24 is not allocated
	// (it is here only for its exact addresses).
	prefix int16
	// exact is the row of the /24's lowest exact address; its other
	// exact addresses follow in host order.
	exact uint16
	// hosts has bit h set when host h of the /24 is an exact address.
	hosts [4]uint64
}

// buildDirectory derives the directory of the leaf groups gs
// (ascending). It numbers the occupied /16s, then the /24s — in group
// order, within a group the allocated ones in prefix order and then
// those that only hold exact addresses — before it allocates, so blocks
// and slots are exactly the stated size with no append slack.
func buildDirectory(gs []Group) *directory {
	d := &directory{}
	blocks := uint32(1)
	for _, g := range gs {
		for _, keys := range [2][]uint32{g.Prefixes, g.IPs} {
			for _, k := range keys {
				if b := &d.l1[k>>16]; *b == 0 {
					*b = blocks
					blocks++
				}
			}
		}
	}
	d.blocks = make([][256]uint32, blocks)
	slots := uint32(1)
	for _, g := range gs {
		for _, keys := range [2][]uint32{g.Prefixes, g.IPs} {
			for _, k := range keys {
				if e := &d.blocks[d.l1[k>>16]][k>>8&0xff]; *e == 0 {
					*e = slots
					slots++
				}
			}
		}
	}
	d.slots = make([]dirSlot, slots)
	for i := range d.slots {
		d.slots[i].prefix = -1
	}
	for gi, g := range gs {
		for r, p := range g.Prefixes {
			sl := &d.slots[d.blocks[d.l1[p>>16]][p>>8&0xff]]
			sl.group, sl.prefix = uint32(gi), int16(r)
		}
		for r, ip := range g.IPs {
			sl := &d.slots[d.blocks[d.l1[ip>>16]][ip>>8&0xff]]
			if sl.hosts == [4]uint64{} {
				sl.group, sl.exact = uint32(gi), uint16(len(g.Prefixes)+r)
			}
			sl.hosts[ip>>6&3] |= 1 << (ip & 63)
		}
	}
	return d
}

// row locates ip's answer row: its group, and its row in the group's
// pages — its exact row when ip is a known interface address (the row
// of its /24's first exact address plus the number of exact hosts
// below it), else its /24's prefix row, else -1 (a miss).
func (d *directory) row(ip uint32) (group, row int) {
	sl := &d.slots[d.blocks[d.l1[ip>>16]][ip>>8&0xff]]
	w, bit := ip>>6&3, ip&63
	if sl.hosts[w]>>bit&1 == 0 {
		return int(sl.group), int(sl.prefix)
	}
	rank := bits.OnesCount64(sl.hosts[w] & (1<<bit - 1))
	for _, word := range sl.hosts[:w] {
		rank += bits.OnesCount64(word)
	}
	return int(sl.group), int(sl.exact) + rank
}
