package network

import "presto/internal/sim"

// This file implements the chaos subsystem's perturbation layer: seeded,
// deterministic jitter on per-message software costs. The fixed cost
// presets always produce the same message interleavings for a given
// program; jitter shakes out orderings those presets never reach
// (invalidations overtaking grants, recalls chasing migrating blocks)
// while keeping every run reproducible from (Params, JitterSeed).
//
// Determinism requirement: any randomness consumed at send time must be a
// pure function of *simulated* state — never of host state — so that a
// seed reproduces its run exactly. The jitter here hashes (seed, virtual
// time, src, dst, payload) with a splitmix64-style mixer, which
// satisfies that requirement.

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit
// mixing function (Steele et al., "Fast Splittable Pseudorandom Number
// Generators").
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jitter scales d by a factor in [1-pct%, 1+pct%] derived from the hash
// inputs. d == 0 stays 0.
func (p *Params) jitter(d sim.Time, now sim.Time, a, b, payload int) sim.Time {
	if p.JitterPct <= 0 || d == 0 {
		return d
	}
	h := mix64(p.JitterSeed ^ mix64(uint64(now)^uint64(a)<<48^uint64(b)<<32^uint64(payload)))
	// signed offset in [-pct, +pct] permille-ish: use basis points for
	// resolution (pct*100 bp).
	span := int64(p.JitterPct) * 100 * 2
	off := int64(h%uint64(span+1)) - int64(p.JitterPct)*100
	return d + sim.Time(int64(d)*off/10000)
}

// SendCostAt returns SendCost perturbed by seeded jitter, as a pure
// function of (virtual time, sender, receiver, payload).
func (p *Params) SendCostAt(payload int, now sim.Time, src, dst int) sim.Time {
	return p.jitter(p.SendCost(payload), now, src, dst, payload)
}

// RecvOverheadAt returns RecvOverhead perturbed by seeded jitter.
func (p *Params) RecvOverheadAt(now sim.Time, node int) sim.Time {
	return p.jitter(p.RecvOverhead, now, node, node, 1)
}

// TransitDelayAt returns TransitDelay perturbed by seeded jitter, clamped
// below at MinLatency so a jittered message can never undercut the
// interconnect's minimum latency.
func (p *Params) TransitDelayAt(payload int, now sim.Time, src, dst int) sim.Time {
	d := p.jitter(p.TransitDelay(payload), now, src, dst, payload)
	if min := p.MinLatency(); d < min {
		d = min
	}
	return d
}

// TransitDelayPairAt is TransitDelayAt's topology-aware variant: the
// jittered pair transit is clamped below at that pair's minimal transit
// (empty payload), so a jittered message can never undercut the pair's
// floor (PairMinLatency). Clamping at the global MinLatency would not be
// enough on a clustered machine: the intra-node minimum is far below the
// cross-node floor. On flat presets the pair
// floor equals TransitDelay(0) == MinLatency(), so this is byte-identical
// to TransitDelayAt there.
func (p *Params) TransitDelayPairAt(payload int, now sim.Time, src, dst int) sim.Time {
	d := p.jitter(p.TransitDelayPair(payload, src, dst), now, src, dst, payload)
	if min := p.TransitDelayPair(0, src, dst); d < min {
		d = min
	}
	return d
}

// WithJitter returns a copy of p with the given jitter configuration
// (percent magnitude and hash seed).
func (p *Params) WithJitter(pct int, seed uint64) *Params {
	out := *p
	out.JitterPct = pct
	out.JitterSeed = seed
	return &out
}
