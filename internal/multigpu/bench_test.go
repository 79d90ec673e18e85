package multigpu

import (
	"fmt"
	"testing"
)

// BenchmarkMultiDeviceScaling measures the host-parallelism payoff of
// sharding the simulation: one data-parallel training run at 1, 2 and 4
// devices with one host worker per device. Simulated work grows
// linearly with the device count (each replica trains its own
// sequences), so ideal wall-clock is flat across the sub-benchmarks on a
// host with ≥ devices cores; on fewer cores it grows with the device
// count. bench/'s dp_train_2dev workload is the recorded version
// (multigpu.parallel_speedup).
func BenchmarkMultiDeviceScaling(b *testing.B) {
	const steps, seqLen = 2, 8
	for _, devices := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			var simCycles uint64
			for i := 0; i < b.N; i++ {
				res, err := RunDPTrain(Config{Devices: devices, Workers: devices}, steps, seqLen)
				if err != nil {
					b.Fatal(err)
				}
				simCycles += res.Cycles * uint64(devices)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(simCycles), "ns/sim-cycle")
			b.ReportMetric(float64(devices*steps*seqLen*b.N)/b.Elapsed().Seconds(), "tokens/s")
		})
	}
}
