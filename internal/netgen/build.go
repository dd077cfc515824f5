package netgen

import (
	"math"
	"sort"

	"geonet/internal/geo"
	"geonet/internal/parallel"
	"geonet/internal/population"
	"geonet/internal/rng"
)

// Build generates a complete ground-truth Internet over the given world.
func Build(cfg Config, world *population.World) *Internet {
	if cfg.Scale <= 0 {
		cfg = DefaultConfig()
	}
	s := rng.New(cfg.Seed)
	b := &builder{
		cfg:   cfg,
		world: world,
		in: &Internet{
			World:          world,
			ByIP:           make(map[uint32]IfaceID),
			Prefix24Router: make(map[uint32]RouterID),
		},
		linkSet: make(map[[2]RouterID]bool),
	}
	b.planASes(s.Split("ases"))
	b.placeRouters(s.Split("routers"))
	b.intraLinks(s.Split("intralinks"))
	b.interLinks(s.Split("interlinks"))
	// Monitors come before address allocation so their host-facing
	// stub interfaces receive addresses too.
	b.placeMonitors(s.Split("monitors"))
	b.allocateAddresses(s.Split("alloc"))
	b.assignHostnames(s.Split("names"))
	b.applyFaults(s.Split("faults"))
	return b.in
}

type builder struct {
	cfg   Config
	world *population.World
	in    *Internet

	// routerBudget per AS, decided at planning time.
	asSizes []int
	// routersByASPlace[as][place] lists routers of an AS at a place.
	routersByASPlace []map[int][]RouterID
	linkSet          map[[2]RouterID]bool

	// homeWeights caches addAS's per-region home-place weight array
	// (Pow over every place of the region); it depends only on the
	// region, so computing it per AS was the generator's hottest loop.
	homeWeights map[population.EconRegion][]float64
	// placePow12 caches the per-place online^1.2 router-distribution
	// weight by world place index, for the same reason.
	placePow12 []float64
}

// planASes decides how many ASes exist, their sizes (router counts),
// home regions and home places. Sizes are drawn from a bounded Pareto,
// giving the long-tailed AS size distribution of Figure 7; a handful of
// explicit tier-1 backbones provide the globally dispersed giants of
// Figure 10.
func (b *builder) planASes(s *rng.Stream) {
	budgets := regionIfaceBudget(b.cfg.Scale)
	// Convert interface budgets to router budgets (mean degree ~3, so
	// ~3 interfaces per router).
	routerBudget := map[population.EconRegion]float64{}
	totalRouters := 0.0
	for econ, ifaces := range budgets {
		routerBudget[econ] = ifaces / 3.0
		totalRouters += ifaces / 3.0
	}

	// Tier-1 backbones: globally dispersed, headquartered mostly in
	// the US (as in 2002). They consume a share of every region's
	// budget because their footprint is worldwide.
	nTier1 := 6 + int(math.Sqrt(b.cfg.Scale*100)) // 9 at default scale
	tier1Share := 0.22                            // of world routers
	tier1Total := totalRouters * tier1Share
	for i := 0; i < nTier1; i++ {
		size := int(tier1Total / float64(nTier1) * (0.6 + s.Float64()*0.8))
		if size < 20 {
			size = 20
		}
		econ := population.EconUSA
		if s.Bool(0.3) {
			econ = population.EconWesternEurope
		}
		b.addAS(s, Tier1, econ, size)
	}
	// Deduct the tier-1 mass from regional budgets roughly in
	// proportion to online users (where tier-1s deploy routers).
	for econ := range routerBudget {
		routerBudget[econ] -= tier1Total * b.onlineShare(econ)
		if routerBudget[econ] < 0 {
			routerBudget[econ] = 0
		}
	}

	// Regional transit and stub ASes consume the rest of each budget.
	regions := make([]population.EconRegion, 0, len(routerBudget))
	for econ := range routerBudget {
		regions = append(regions, econ)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	for _, econ := range regions {
		remaining := routerBudget[econ]
		rs := s.Split("plan-" + econ.String())
		maxAS := remaining / 4
		if f := b.cfg.ASCountFactor; f > 0 {
			// The ablation knob: dividing the maximum AS size splits
			// the same router budget into more (f > 1) or fewer
			// (f < 1) ASes. f == 1 reproduces the default exactly.
			maxAS = remaining / (4 * f)
		}
		if maxAS < 8 {
			maxAS = 8
		}
		for remaining >= 1 {
			size := int(rs.BoundedPareto(1, maxAS, 1.05))
			if float64(size) > remaining {
				size = int(remaining)
			}
			if size < 1 {
				size = 1
			}
			typ := Stub
			if size >= 40 {
				typ = Transit
			}
			b.addAS(rs, typ, econ, size)
			remaining -= float64(size)
		}
	}
}

// onlineShare returns a region's share of world online users.
func (b *builder) onlineShare(e population.EconRegion) float64 {
	var region, total float64
	for _, st := range population.Stats() {
		total += st.OnlineM
		if st.Region == e {
			region = st.OnlineM
		}
	}
	return region / total
}

// addAS registers one AS with a home place chosen superlinearly by
// online population — the same attractiveness kernel used for place
// expansion, so single-homed stub ASes also concentrate in metros
// (this is what makes the aggregate router density superlinear in
// population, Figure 2).
func (b *builder) addAS(s *rng.Stream, typ ASType, econ population.EconRegion, size int) {
	id := ASID(len(b.in.ASes))
	places := b.world.PlacesOf(econ)
	weights := b.homeWeights[econ]
	if weights == nil {
		weights = make([]float64, len(places))
		for i, pi := range places {
			if b.cfg.UniformPlacement {
				weights[i] = 1
			} else {
				weights[i] = math.Pow(b.world.Places[pi].Online+1, 1.5)
			}
		}
		if b.homeWeights == nil {
			b.homeWeights = make(map[population.EconRegion][]float64)
		}
		b.homeWeights[econ] = weights
	}
	home := places[s.WeightedIndex(weights)]
	b.in.ASes = append(b.in.ASes, AS{
		ID:        id,
		Number:    64 + int(id)*3 + s.Intn(3), // spaced, unique, realistic gaps
		Type:      typ,
		Econ:      econ,
		HomePlace: home,
	})
	b.asSizes = append(b.asSizes, size)
}

// placeRouters chooses each AS's set of places and distributes its
// routers among them. Place choice and router allocation are both
// weighted superlinearly by online population — the generative
// mechanism behind the superlinear router density of Figure 2. Small
// and medium ASes mostly cluster near home but a minority disperse
// worldwide; giant ASes always disperse worldwide (the two regimes of
// Figure 10).
func (b *builder) placeRouters(s *rng.Stream) {
	world := b.world
	// Precompute per-econ place samplers weighted by online^1.4 (the
	// superlinear place-attractiveness kernel); the UniformPlacement
	// ablation flattens every kernel to 1 (the Waxman assumption).
	placeWeight := func(pi int) float64 {
		if b.cfg.UniformPlacement {
			return 1
		}
		return math.Pow(world.Places[pi].Online+1, 1.4)
	}
	econPlaces := map[population.EconRegion][]int{}
	econSamplers := map[population.EconRegion]*rng.Cumulative{}
	var worldPlaces []int
	var worldWeights []float64
	for e := population.EconRegion(0); e < population.NumEconRegions; e++ {
		pls := world.PlacesOf(e)
		econPlaces[e] = pls
		w := make([]float64, len(pls))
		for i, pi := range pls {
			w[i] = placeWeight(pi)
			worldPlaces = append(worldPlaces, pi)
			if b.cfg.UniformPlacement {
				worldWeights = append(worldWeights, 1)
			} else {
				worldWeights = append(worldWeights, world.Places[pi].Online)
			}
		}
		econSamplers[e] = rng.NewCumulative(w)
	}
	worldSampler := rng.NewCumulative(worldWeights)

	b.routersByASPlace = make([]map[int][]RouterID, len(b.in.ASes))
	for ai := range b.in.ASes {
		as := &b.in.ASes[ai]
		size := b.asSizes[ai]
		rs := s.SplitN("as", ai)

		places := b.choosePlaces(rs, as, size, econPlaces[as.Econ], econSamplers[as.Econ], worldPlaces, worldSampler)
		as.Places = places

		// Distribute routers over the chosen places, superlinearly by
		// online population; every chosen place gets at least one.
		if b.placePow12 == nil {
			b.placePow12 = make([]float64, len(world.Places))
			for pi := range world.Places {
				if b.cfg.UniformPlacement {
					b.placePow12[pi] = 1
				} else {
					b.placePow12[pi] = math.Pow(world.Places[pi].Online+1, 1.2)
				}
			}
		}
		weights := make([]float64, len(places))
		for i, pi := range places {
			weights[i] = b.placePow12[pi]
		}
		sampler := rng.NewCumulative(weights)
		counts := make([]int, len(places))
		for i := range places {
			if i < size {
				counts[i]++
			}
		}
		for r := len(places); r < size; r++ {
			counts[sampler.Sample(rs)]++
		}

		b.routersByASPlace[ai] = make(map[int][]RouterID, len(places))
		for i, pi := range places {
			loc := world.Places[pi].Loc
			for k := 0; k < counts[i]; k++ {
				rid := RouterID(len(b.in.Routers))
				jitter := rs.Exp(4)
				if jitter > 12 {
					jitter = 12
				}
				b.in.Routers = append(b.in.Routers, Router{
					ID:      rid,
					AS:      as.ID,
					ASIndex: int32(len(as.Routers)),
					Place:   pi,
					Loc:     geo.Destination(loc, rs.Float64()*360, jitter),
				})
				as.Routers = append(as.Routers, rid)
				b.routersByASPlace[ai][pi] = append(b.routersByASPlace[ai][pi], rid)
			}
		}
	}
}

// choosePlaces picks the distinct places an AS occupies.
func (b *builder) choosePlaces(s *rng.Stream, as *AS, size int,
	regionPlaces []int, regionSampler *rng.Cumulative,
	worldPlaces []int, worldSampler *rng.Cumulative) []int {

	world := b.world
	var nloc int
	worldwide := false
	switch {
	case as.Type == Tier1:
		nloc = int(math.Pow(float64(size), 0.8))
		if nloc < 25 {
			nloc = 25
		}
		worldwide = true
	default:
		base := math.Pow(float64(size), 0.72)
		nloc = int(base * s.LogNormal(0, 0.7))
		if nloc < 1 {
			nloc = 1
		}
		// A minority of small/medium ASes disperse worldwide — the
		// paper finds "even small ASes ... may be very widely
		// dispersed geographically (in fact, worldwide)".
		worldwide = s.Bool(0.12)
	}
	if nloc > size {
		nloc = size
	}
	if nloc > 400 {
		nloc = 400
	}

	chosen := map[int]struct{}{as.HomePlace: {}}
	out := []int{as.HomePlace}
	tries := 0
	for len(out) < nloc && tries < nloc*30 {
		tries++
		var cand int
		if worldwide {
			cand = worldPlaces[worldSampler.Sample(s)]
		} else if s.Bool(0.8) {
			// Distance-biased expansion around home: sample from the
			// region, accept with probability decaying in distance.
			cand = regionPlaces[regionSampler.Sample(s)]
			d := geo.DistanceMiles(world.Places[cand].Loc, world.Places[as.HomePlace].Loc)
			if !s.Bool(math.Exp(-d / 600)) {
				continue
			}
		} else {
			cand = regionPlaces[regionSampler.Sample(s)]
		}
		if _, dup := chosen[cand]; dup {
			continue
		}
		chosen[cand] = struct{}{}
		out = append(out, cand)
	}
	return out
}

// intraLinks builds each AS's internal topology: a distance-preferring
// spanning attachment (so the AS is connected) plus extra links, most
// chosen by an exponentially decaying distance kernel and a small
// fraction chosen uniformly (distance-independent long hauls). The
// O(n²) candidate draws fan out per AS — each AS draws from its own
// SplitN("as", ai) stream and reads only router locations — and the
// links are then added serially in AS order, so link and interface IDs
// are the same at any GOMAXPROCS.
func (b *builder) intraLinks(s *rng.Stream) {
	pairs := parallel.Map(len(b.in.ASes), func(ai int) [][2]RouterID {
		return b.intraPairs(&b.in.ASes[ai], s.SplitN("as", ai))
	})
	for _, ps := range pairs {
		for _, p := range ps {
			b.addLink(p[0], p[1], false)
		}
	}
}

// intraPairs returns one AS's candidate intra-AS links in the order
// they are added: the spanning attachments, then the extra links.
func (b *builder) intraPairs(as *AS, rs *rng.Stream) [][2]RouterID {
	routers := as.Routers
	if len(routers) < 2 {
		return nil
	}
	decay := b.cfg.DecayMiles[as.Econ]
	if decay <= 0 {
		decay = 120
	}

	order := make([]RouterID, len(routers))
	copy(order, routers)
	rs.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	extra := int(b.cfg.MeanExtraLinksPerRouter * float64(len(routers)))
	pairs := make([][2]RouterID, 0, len(order)-1+extra)

	// Spanning attachment.
	weights := make([]float64, 0, len(order))
	for i := 1; i < len(order); i++ {
		weights = weights[:0]
		loc := b.in.Routers[order[i]].Loc
		for j := 0; j < i; j++ {
			d := geo.DistanceMiles(loc, b.in.Routers[order[j]].Loc)
			weights = append(weights, math.Exp(-d/decay)+1e-12)
		}
		j := rs.WeightedIndex(weights)
		pairs = append(pairs, [2]RouterID{order[i], order[j]})
	}

	// Extra links.
	for e := 0; e < extra; e++ {
		a := routers[rs.Intn(len(routers))]
		var partner RouterID = None
		if rs.Bool(b.cfg.DistanceIndependentFraction) {
			partner = routers[rs.Intn(len(routers))]
		} else {
			weights = weights[:0]
			loc := b.in.Routers[a].Loc
			for _, r := range routers {
				if r == a {
					weights = append(weights, 0)
					continue
				}
				d := geo.DistanceMiles(loc, b.in.Routers[r].Loc)
				weights = append(weights, math.Exp(-d/decay)+1e-12)
			}
			partner = routers[rs.WeightedIndex(weights)]
		}
		if partner != a {
			pairs = append(pairs, [2]RouterID{a, partner})
		}
	}
	return pairs
}

// interLinks wires the AS graph: stubs buy transit from providers,
// transits interconnect and attach to tier-1s, tier-1s form a dense
// mesh. Each AS adjacency materialises as one or more physical links
// whose endpoints prefer co-located (IXP-style) place pairs, with a
// minority of deliberately long-haul pairings — which is what makes
// interdomain links about twice as long as intradomain ones (Table VI).
func (b *builder) interLinks(s *rng.Stream) {
	var tier1s, transits []ASID
	for _, as := range b.in.ASes {
		switch as.Type {
		case Tier1:
			tier1s = append(tier1s, as.ID)
		case Transit:
			transits = append(transits, as.ID)
		}
	}
	adj := make(map[[2]ASID]bool)
	connect := func(a, c ASID, rs *rng.Stream) {
		if a == c {
			return
		}
		key := [2]ASID{min32(a, c), max32(a, c)}
		if adj[key] {
			return
		}
		adj[key] = true
		b.in.ASes[a].Neighbors = append(b.in.ASes[a].Neighbors, c)
		b.in.ASes[c].Neighbors = append(b.in.ASes[c].Neighbors, a)
		b.materialize(rs, a, c)
	}

	// Tier-1 mesh.
	meshStream := s.Split("mesh")
	for i := 0; i < len(tier1s); i++ {
		for j := i + 1; j < len(tier1s); j++ {
			if meshStream.Bool(0.85) {
				connect(tier1s[i], tier1s[j], meshStream)
			}
		}
	}

	// Transit ASes attach to tier-1s and to each other, preferring
	// larger and nearer providers.
	providerWeight := func(cand, from ASID) float64 {
		ca := &b.in.ASes[cand]
		fa := &b.in.ASes[from]
		d := geo.DistanceMiles(
			b.world.Places[ca.HomePlace].Loc,
			b.world.Places[fa.HomePlace].Loc)
		return float64(len(ca.Routers)+1+4*len(ca.Neighbors)) * math.Exp(-d/1800)
	}
	trStream := s.Split("transit")
	for _, t := range transits {
		nup := 1 + trStream.Intn(2)
		for k := 0; k < nup; k++ {
			w := make([]float64, len(tier1s))
			for i, c := range tier1s {
				w[i] = providerWeight(c, t)
			}
			connect(t, tier1s[trStream.WeightedIndex(w)], trStream)
		}
		npeer := trStream.Intn(3)
		for k := 0; k < npeer; k++ {
			w := make([]float64, len(transits))
			for i, c := range transits {
				if c == t {
					w[i] = 0
					continue
				}
				w[i] = providerWeight(c, t)
			}
			if len(transits) > 1 {
				connect(t, transits[trStream.WeightedIndex(w)], trStream)
			}
		}
	}

	// Stubs buy transit, preferentially from big nearby providers.
	providers := append(append([]ASID{}, tier1s...), transits...)
	stStream := s.Split("stubs")
	for _, as := range b.in.ASes {
		if as.Type != Stub {
			continue
		}
		nup := 1
		r := stStream.Float64()
		if r > 0.55 {
			nup = 2
		}
		if r > 0.85 {
			nup = 3
		}
		for k := 0; k < nup; k++ {
			w := make([]float64, len(providers))
			for i, c := range providers {
				w[i] = providerWeight(c, as.ID)
			}
			connect(as.ID, providers[stStream.WeightedIndex(w)], stStream)
		}
	}
}

// materialize creates the physical link(s) realising an AS adjacency.
func (b *builder) materialize(s *rng.Stream, a, c ASID) {
	asA, asC := &b.in.ASes[a], &b.in.ASes[c]
	n := 1
	minSize := len(asA.Routers)
	if len(asC.Routers) < minSize {
		minSize = len(asC.Routers)
	}
	if minSize > 50 && s.Bool(0.5) {
		n++
	}
	if minSize > 300 && s.Bool(0.5) {
		n++
	}
	for k := 0; k < n; k++ {
		pa, pc := b.pickPeeringPlaces(s, asA, asC)
		ra := b.randomRouterAt(s, asA, pa)
		rc := b.randomRouterAt(s, asC, pc)
		if ra != None && rc != None && ra != rc {
			b.addLink(ra, rc, true)
		}
	}
}

// pickPeeringPlaces selects the city pair where two ASes interconnect:
// usually the closest pair found among random candidates (exchange
// points are where footprints meet), sometimes a deliberately random —
// and hence long — pairing.
func (b *builder) pickPeeringPlaces(s *rng.Stream, asA, asC *AS) (int, int) {
	ra := func() int { return asA.Places[s.Intn(len(asA.Places))] }
	rc := func() int { return asC.Places[s.Intn(len(asC.Places))] }
	if s.Bool(0.2) {
		return ra(), rc()
	}
	bestA, bestC := ra(), rc()
	best := geo.DistanceMiles(b.world.Places[bestA].Loc, b.world.Places[bestC].Loc)
	tries := 24
	if len(asA.Places)*len(asC.Places) < tries {
		tries = len(asA.Places) * len(asC.Places)
	}
	for i := 0; i < tries; i++ {
		ca, cc := ra(), rc()
		d := geo.DistanceMiles(b.world.Places[ca].Loc, b.world.Places[cc].Loc)
		if d < best {
			best, bestA, bestC = d, ca, cc
		}
	}
	return bestA, bestC
}

func (b *builder) randomRouterAt(s *rng.Stream, as *AS, place int) RouterID {
	rs := b.routersByASPlace[as.ID][place]
	if len(rs) == 0 {
		if len(as.Routers) == 0 {
			return None
		}
		return as.Routers[s.Intn(len(as.Routers))]
	}
	return rs[s.Intn(len(rs))]
}

// addLink creates a link between two routers (one new interface each).
// Parallel links between the same router pair are suppressed.
func (b *builder) addLink(ra, rb RouterID, inter bool) {
	if ra == rb {
		return
	}
	key := [2]RouterID{min32r(ra, rb), max32r(ra, rb)}
	if b.linkSet[key] {
		return
	}
	b.linkSet[key] = true

	lid := LinkID(len(b.in.Links))
	ia := b.newIface(ra, lid)
	ib := b.newIface(rb, lid)
	b.in.Links = append(b.in.Links, Link{
		ID: lid, A: ia, B: ib, Inter: inter,
		LengthMi: geo.DistanceMiles(b.in.Routers[ra].Loc, b.in.Routers[rb].Loc),
	})
}

func (b *builder) newIface(r RouterID, link LinkID) IfaceID {
	id := IfaceID(len(b.in.Ifaces))
	b.in.Ifaces = append(b.in.Ifaces, Iface{ID: id, Router: r, Link: link})
	b.in.Routers[r].Ifaces = append(b.in.Routers[r].Ifaces, id)
	return id
}

func min32(a, b ASID) ASID {
	if a < b {
		return a
	}
	return b
}
func max32(a, b ASID) ASID {
	if a > b {
		return a
	}
	return b
}
func min32r(a, b RouterID) RouterID {
	if a < b {
		return a
	}
	return b
}
func max32r(a, b RouterID) RouterID {
	if a > b {
		return a
	}
	return b
}
