package storage_test

import (
	"testing"

	"duet/internal/iosched"
	"duet/internal/sim"
	"duet/internal/storage"
)

// The disk service loop, with and without a fault injector attached:
// the same blocking-read workload through the one executor (inline
// dispatch and completion on the scheduler goroutine). The injected
// side draws no fault, so the pair shows what the fault path's state
// costs a request that never takes it.

// noFault is an attached injector whose plan never fires.
type noFault struct{}

func (noFault) Evaluate(sim.Time, *storage.Request, int) storage.FaultOutcome {
	return storage.FaultOutcome{}
}

func benchServiceLoop(b *testing.B, inj storage.FaultInjector) {
	b.ReportAllocs()
	e := sim.New(1)
	d := storage.NewDisk(e, "bench", storage.DefaultSSD(1<<20), iosched.NewFIFO())
	d.SetFaultInjector(inj)
	var fail error
	e.Go("driver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			// Stride the block address so the model's head/locality terms
			// stay busy without queue buildup: one request in flight at a
			// time exercises the idle-park/kick-wake edge every iteration.
			if err := d.Read(p, int64(i%4096)*8, 8, storage.ClassNormal, "bench"); err != nil {
				fail = err
				return
			}
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if fail != nil {
		b.Fatal(fail)
	}
}

// BenchmarkDiskServiceCallback measures submit → dispatch → completion
// on a disk with no injector.
func BenchmarkDiskServiceCallback(b *testing.B) { benchServiceLoop(b, nil) }

// BenchmarkDiskServiceFaulty measures the same loop with an injector
// attached that draws no fault: one Evaluate call and the retry
// classification per request, on the same callback.
func BenchmarkDiskServiceFaulty(b *testing.B) { benchServiceLoop(b, noFault{}) }
