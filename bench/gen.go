package main

import (
	"encoding/json"
	"math/rand"

	"paragraph/internal/advisor"
	"paragraph/internal/apps"
	"paragraph/internal/serve"
	"paragraph/internal/variants"
)

const (
	// servedMachine is the one platform the serving children load; every
	// generated request names it.
	servedMachine = "NVIDIA V100 (GPU)"

	// sizesPerKernel × 17 suite kernels is the warm key set: 136 keys, well
	// under the 512-entry advise cache, so a filled set is never evicted.
	sizesPerKernel = 8

	// sizeModulus bounds the first parameter's offset above its smallest
	// sweep value. It is prime, so any stride in [1, sizeModulus) walks all
	// residues before repeating: a run would need 17 × 65521 requests to
	// see one key twice.
	sizeModulus = 65521
)

// request is one generated /v1/advise call: the bytes sent on the wire plus
// what the oracle needs to judge the answer.
type request struct {
	Body     []byte
	Kernel   apps.Kernel
	Bindings map[string]float64
	Grid     int // recommendations a correct answer carries
}

// generator derives every request of a run from the -seed argument. The
// request stream is indexed: request i is kernel i mod 17 (round-robin over
// the suite) at that kernel's (i div 17)-th size, so a prefix of the stream
// is a balanced key set and the whole stream never repeats a key.
type generator struct {
	seed    int64
	sizes   int // sizes per kernel in the warm key set: sizesPerKernel, fewer in -quick runs
	kernels []apps.Kernel
	grid    []int    // each kernel's default-grid size
	lo      []int    // smallest sweep value of each kernel's first parameter
	start   []uint64 // per-kernel offset into the size walk
	stride  []uint64 // per-kernel step of the size walk, in [1, sizeModulus)
}

func newGenerator(seed int64) *generator {
	g := &generator{seed: seed, sizes: sizesPerKernel, kernels: apps.Kernels()}
	rng := rand.New(rand.NewSource(seed))
	for _, k := range g.kernels {
		lo := k.Params[0].Values[0]
		for _, v := range k.Params[0].Values {
			if v < lo {
				lo = v
			}
		}
		g.lo = append(g.lo, lo)
		g.grid = append(g.grid, len(defaultGrid(k)))
		g.start = append(g.start, uint64(rng.Intn(sizeModulus)))
		g.stride = append(g.stride, uint64(1+rng.Intn(sizeModulus-1)))
	}
	return g
}

// mix is splitmix64 over (seed, i, salt): a stateless draw, so request i is
// the same whether the stream is walked from the start or entered midway.
func mix(seed int64, i, salt int) uint64 {
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15 + uint64(salt)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// at builds request i of the stream. The first parameter carries the
// uniqueness (a value in [lo, lo+sizeModulus) no other index of the same
// kernel gets); the remaining parameters are drawn from their sweep values.
func (g *generator) at(i int) request {
	ki := i % len(g.kernels)
	j := uint64(i / len(g.kernels))
	k := g.kernels[ki]
	bindings := make(map[string]float64, len(k.Params))
	for pi, p := range k.Params {
		if pi == 0 {
			bindings[p.Name] = float64(g.lo[ki]) + float64((g.start[ki]+j*g.stride[ki])%sizeModulus)
			continue
		}
		bindings[p.Name] = float64(p.Values[mix(g.seed, i, pi)%uint64(len(p.Values))])
	}
	body, err := json.Marshal(serve.AdviseRequest{Kernel: k.Name, Machine: servedMachine, Bindings: bindings})
	if err != nil {
		panic(err) // a map of finite floats and two strings always marshals
	}
	return request{Body: body, Kernel: k, Bindings: bindings, Grid: g.grid[ki]}
}

// defaultGrid enumerates kernel k's default search space on the served
// (GPU) machine in the advisor's order: 12 team×thread pairs per admissible
// GPU variant, so 24 or 48 points.
func defaultGrid(k apps.Kernel) []variants.Instance {
	space := advisor.DefaultSearchSpace()
	var grid []variants.Instance
	for _, kind := range variants.Kinds() {
		if !kind.IsGPU() || (kind.IsCollapse() && !k.Collapsible) {
			continue
		}
		for _, g := range space.GPUTeams {
			for _, t := range space.GPUThreads {
				grid = append(grid, variants.Instance{Kernel: k, Kind: kind, Teams: g, Threads: t})
			}
		}
	}
	return grid
}

// warmSet is the fixed key set of advise_warm: the first 17 × 8 requests
// of the stream, i.e. every suite kernel at eight sizes.
func (g *generator) warmSet() []request {
	set := make([]request, g.sizes*len(g.kernels))
	for i := range set {
		set[i] = g.at(i)
	}
	return set
}

// coldSequence is client c's share of the never-repeating stream: indices
// c, c+clients, c+2·clients, … so concurrent clients cannot collide.
func (g *generator) coldSequence(client, clients, n int) []request {
	seq := make([]request, n)
	for t := range seq {
		seq[t] = g.at(client + clients*t)
	}
	return seq
}

// uniformDraws is client c's access pattern over a key set of size keys:
// n independent uniform indices, fixed by the seed.
func uniformDraws(seed int64, client, keys, n int) []uint16 {
	rng := rand.New(rand.NewSource(int64(mix(seed, client, 0x5eed))))
	draws := make([]uint16, n)
	for i := range draws {
		draws[i] = uint16(rng.Intn(keys))
	}
	return draws
}
