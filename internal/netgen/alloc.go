package netgen

import (
	"math"
	"sort"

	"geonet/internal/population"
	"geonet/internal/rng"
)

// allocateAddresses hands each AS a contiguous, power-of-two-aligned
// run of /24 blocks sized to its interface count, assigns interface
// addresses sequentially within the run, and records the aggregate
// prefix the AS will originate in BGP. Each /24 is "homed" on a router
// so probes to arbitrary addresses inside allocated space have a
// destination (the end hosts the Skitter destination lists aim at).
func (b *builder) allocateAddresses(s *rng.Stream) {
	next := uint32(4) << 24 // start at 4.0.0.0, clear of reserved space
	for ai := range b.in.ASes {
		as := &b.in.ASes[ai]
		// Collect interfaces grouped by place, one group per PoP. Real
		// ISPs allocate at least a /24 per PoP, so every /24 is
		// geographically coherent — which is what makes per-prefix
		// geography feeds (EdgeScape) meaningful at all.
		var groups [][]IfaceID
		for _, pi := range as.Places {
			var g []IfaceID
			for _, rid := range b.routersByASPlace[ai][pi] {
				g = append(g, b.in.Routers[rid].Ifaces...)
			}
			if len(g) > 0 {
				groups = append(groups, g)
			}
		}
		if len(groups) == 0 && len(as.Routers) > 0 {
			var g []IfaceID
			for _, rid := range as.Routers {
				g = append(g, b.in.Routers[rid].Ifaces...)
			}
			groups = append(groups, g)
		}
		// Size the allocation: each PoP consumes whole /24s (up to 200
		// usable hosts each), rounded up to a power of two so the run
		// aggregates into a single prefix.
		n24 := 0
		for _, g := range groups {
			n24 += (len(g) + 199) / 200
		}
		if n24 == 0 {
			n24 = 1
		}
		pow := 1
		for pow < n24 {
			pow <<= 1
		}
		n24 = pow
		// Align the base to the block size.
		blockSize := uint32(n24) << 8
		if rem := next % blockSize; rem != 0 {
			next += blockSize - rem
		}
		base := next
		next += blockSize

		prefLen := 24 - intLog2(n24)
		as.Prefixes = []Prefix{{Addr: base, Len: prefLen}}

		// Assign interface addresses sequentially within each PoP
		// group, starting each group on a fresh /24 boundary and
		// skipping .0 and .255 host parts.
		addr := base
		for _, g := range groups {
			host := uint32(1)
			for _, ifid := range g {
				ip := addr + host
				b.in.Ifaces[ifid].IP = ip
				b.in.ByIP[ip] = ifid
				// Record the /24's home router (first interface wins).
				p24 := ip &^ 0xff
				if _, ok := b.in.Prefix24Router[p24]; !ok {
					b.in.Prefix24Router[p24] = b.in.Ifaces[ifid].Router
				}
				host++
				if host >= 254 {
					host = 1
					addr += 256
				}
			}
			addr += 256 // next group starts on a fresh /24
		}
		// Home the remaining /24s of the block on random AS routers so
		// probes into unused space still terminate somewhere real.
		if len(as.Routers) > 0 {
			for p := base; p < base+blockSize; p += 256 {
				if _, ok := b.in.Prefix24Router[p]; !ok {
					b.in.Prefix24Router[p] = as.Routers[s.Intn(len(as.Routers))]
				}
			}
		}
	}
	// Canonical addresses: the lowest public interface address of each
	// router (the address its ICMP Port Unreachable replies carry).
	for ri := range b.in.Routers {
		r := &b.in.Routers[ri]
		var best uint32 = math.MaxUint32
		for _, ifid := range r.Ifaces {
			ifc := &b.in.Ifaces[ifid]
			if !ifc.Private && ifc.IP != 0 && ifc.IP < best {
				best = ifc.IP
			}
		}
		if best != math.MaxUint32 {
			r.CanonicalIP = best
		}
	}
}

func intLog2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Behavioural fault rates applyFaults draws; interfaces without
// reverse DNS are drawn at hostname time (noPTRProb).
const (
	unresponsiveRouterProb = 0.03  // router never answers traceroute
	brokenAliasProb        = 0.08  // router defeats alias resolution
	privateAddrProb        = 0.004 // interface leaks RFC1918 address
)

// applyFaults injects the misbehaviours real measurement tools contend
// with: unresponsive routers, routers that defeat alias resolution,
// interfaces leaking private addresses, and interfaces without reverse
// DNS (handled at hostname time).
func (b *builder) applyFaults(s *rng.Stream) {
	privNext := uint32(10) << 24
	for ri := range b.in.Routers {
		r := &b.in.Routers[ri]
		if s.Bool(unresponsiveRouterProb) {
			r.Unresponsive = true
		}
		if s.Bool(brokenAliasProb) {
			r.BrokenAlias = true
		}
	}
	for ii := range b.in.Ifaces {
		ifc := &b.in.Ifaces[ii]
		if s.Bool(privateAddrProb) {
			delete(b.in.ByIP, ifc.IP)
			privNext++
			if privNext>>24 != 10 {
				privNext = uint32(10)<<24 + 1
			}
			ifc.Private = true
			ifc.IP = privNext
			ifc.Hostname = ""
			b.in.ByIP[ifc.IP] = ifc.ID
		}
	}
	// Recompute canonical addresses in case a private override
	// displaced a router's lowest address.
	for ri := range b.in.Routers {
		r := &b.in.Routers[ri]
		var best uint32 = math.MaxUint32
		for _, ifid := range r.Ifaces {
			ifc := &b.in.Ifaces[ifid]
			if !ifc.Private && ifc.IP != 0 && ifc.IP < best {
				best = ifc.IP
			}
		}
		if best != math.MaxUint32 {
			r.CanonicalIP = best
		} else if len(r.Ifaces) > 0 {
			r.CanonicalIP = b.in.Ifaces[r.Ifaces[0]].IP
		}
	}
}

// placeMonitors selects the Skitter monitor routers (spread across
// distinct major places worldwide, as CAIDA's were) and the single
// Mercator host (run from one US site, as the Scan project's was).
func (b *builder) placeMonitors(s *rng.Stream) {
	// Rank places by online users and walk down the list, taking at
	// most one monitor per place, preferring distinct economic regions
	// early so the monitor set is worldwide.
	type cand struct {
		place  int
		online float64
	}
	var cands []cand
	routersAtPlace := map[int][]RouterID{}
	for ri := range b.in.Routers {
		routersAtPlace[b.in.Routers[ri].Place] = append(routersAtPlace[b.in.Routers[ri].Place], RouterID(ri))
	}
	for place, rs := range routersAtPlace {
		if len(rs) > 0 {
			cands = append(cands, cand{place, b.world.Places[place].Online})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].online != cands[j].online {
			return cands[i].online > cands[j].online
		}
		return cands[i].place < cands[j].place
	})

	seenEcon := map[population.EconRegion]int{}
	n := b.cfg.NumSkitterMonitors
	if n <= 0 {
		n = 19
	}
	for _, c := range cands {
		if len(b.in.SkitterMonitors) >= n {
			break
		}
		econ := b.world.Places[c.place].Econ
		// Allow at most a third of monitors in any one region.
		if seenEcon[econ] >= (n+2)/3 {
			continue
		}
		seenEcon[econ]++
		rs := routersAtPlace[c.place]
		b.in.SkitterMonitors = append(b.in.SkitterMonitors, rs[s.Intn(len(rs))])
	}
	// Fill any shortfall without the region cap.
	for _, c := range cands {
		if len(b.in.SkitterMonitors) >= n {
			break
		}
		rs := routersAtPlace[c.place]
		r := rs[s.Intn(len(rs))]
		dup := false
		for _, m := range b.in.SkitterMonitors {
			if m == r {
				dup = true
				break
			}
		}
		if !dup {
			b.in.SkitterMonitors = append(b.in.SkitterMonitors, r)
		}
	}

	// Mercator ran from a single university host in the US.
	b.in.MercatorHost = None
	for _, c := range cands {
		if b.world.Places[c.place].Econ == population.EconUSA {
			rs := routersAtPlace[c.place]
			b.in.MercatorHost = rs[s.Intn(len(rs))]
			break
		}
	}
	if b.in.MercatorHost == None && len(b.in.Routers) > 0 {
		b.in.MercatorHost = RouterID(s.Intn(len(b.in.Routers)))
	}

	// Each monitoring host hangs off its gateway router via a stub
	// interface; traceroute's first hop reports that interface.
	for _, m := range b.in.SkitterMonitors {
		b.newIface(m, None)
	}
	if b.in.MercatorHost != None {
		b.newIface(b.in.MercatorHost, None)
	}
}
