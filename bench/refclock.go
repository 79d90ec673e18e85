package main

// The reference clock. The hosts this benchmark runs on are small shared
// VMs whose speed wanders by 10-30% over tens of seconds to minutes
// (neighbours on the same cores), which CPU-time accounting does not
// remove: the same pass of the same code costs that much more or less CPU
// time from one run to the next. So every end-to-end pass is bracketed by
// a fixed reference computation owned by the benchmark, and host time is
// reported at the speed the machine ran the reference at, scaled to a
// nominal machine:
//
//	normalised = measured CPU seconds / slowdown
//	slowdown   = reference's CPU seconds now / its nominal CPU seconds
//
// The reference is two loops chosen because their cost moved with the
// simulator's when the machine slowed (correlation 0.7-0.8 with pass
// times over six workloads, against 0.2-0.3 for an allocation loop or a
// random walk over 4 MiB, which react to a neighbour's cache traffic far
// more than the simulator does): a register-machine interpreter loop
// (branchy dispatch, L1-resident, as exec's step loop) and a walk over a
// 16k-entry map (hashing and L2-resident pointer chasing, as the page
// table and the replay cache). On a noisy host the first reacts less
// than the simulator and the second more; with two thirds of the
// reference's time in the first, the quotient was steadiest (train_hybrid
// over 8 minutes in which raw CPU seconds per pass spread by 30%: 2.7% at
// this mix, 4.8% at equal shares, 10% and 18% with either loop alone).
// Neither loop touches the simulator, so a change to the simulator cannot
// move the reference.

import "sync"

const (
	refInterpSteps = 70_000_000 // about 0.13 s
	refMapLookups  = 9_500_000  // about 0.07 s
	refMapEntries  = 1 << 14

	// refNominalS is the reference's nominal CPU time: about its median on
	// the 2-vCPU 2.1 GHz Xeon VM the benchmark was written on. It only
	// fixes the unit — a "nominal second" is a second on that machine at
	// its usual speed — and must not change once a baseline is recorded.
	refNominalS = 0.2
)

var (
	refOnce  sync.Once
	refTable [4096]uint32
	refMap   map[uint64]uint64
)

func refInit() {
	for i := range refTable {
		refTable[i] = uint32(i) * 2654435761
	}
	refMap = make(map[uint64]uint64, refMapEntries)
	for i := uint64(0); i < refMapEntries; i++ {
		refMap[i*2654435761] = i
	}
}

// refInterp steps a 16-register machine through a fixed 16-instruction
// program with data-dependent skips.
func refInterp() {
	code := [16]uint8{0, 1, 2, 3, 4, 1, 0, 5, 2, 3, 6, 0, 1, 4, 7, 2}
	var regs [16]uint64
	regs[1] = 3
	pc := 0
	for i := 0; i < refInterpSteps; i++ {
		a, b := (pc+i)&15, (pc*7+i)&15
		switch code[pc&15] {
		case 0:
			regs[a] += regs[b] + 1
		case 1:
			regs[a] ^= regs[b] << 3
		case 2:
			regs[a] = regs[b] * 2654435761
		case 3:
			if regs[a]&1 == 0 {
				pc += 2
			}
		case 4:
			regs[a] -= regs[b]
		case 5:
			regs[a] = regs[a]>>5 | regs[b]
		case 6:
			if regs[a] > regs[b] {
				pc++
			}
		case 7:
			regs[a] = uint64(refTable[regs[b]&(uint64(len(refTable))-1)])
		}
		pc++
	}
	sink += regs[3]
}

// refMapWalk looks every key of the map up in turn, over and over.
func refMapWalk() {
	var s uint64
	for i := 0; i < refMapLookups; i++ {
		s += refMap[uint64(i&(refMapEntries-1))*2654435761]
	}
	sink += s
}

// hostSlowdown runs the reference once and returns how many times
// slower than nominal the machine ran it.
func hostSlowdown() float64 {
	refOnce.Do(refInit)
	c0 := cpuSeconds()
	refInterp()
	refMapWalk()
	return (cpuSeconds() - c0) / refNominalS
}

// normalise divides each pass's CPU seconds by the machine's slowdown
// around it — the mean of the reference samples taken just before and
// just after the pass; slow has one sample more than v.
func normalise(v, slow []float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] / ((slow[i] + slow[i+1]) / 2)
	}
	return out
}
