package contextpref

// Concurrency test for the degraded-mode state machine: probe-driven
// recovery (Run), MarkDegraded/MarkHealthy storms, and Gate/Degraded
// readers all race under -race, while the transition counters stay
// monotonic and consistent with the observed callbacks — no transition
// is lost or double-counted.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHealthProberRace(t *testing.T) {
	h := NewShardHealth(0)
	reg := NewTelemetryRegistry()
	RegisterShardHealthTelemetry([]*Health{h}, reg)
	trans := reg.CounterVec("cp_health_transitions_total", "", "to")
	degradedC, healthyC := trans.With("degraded"), trans.With("healthy")
	probes := reg.CounterVec("cp_health_probe_total", "", "outcome")

	var cbDegraded, cbHealthy atomic.Uint64
	h.OnChange(func(degraded bool, _ error) {
		if degraded {
			cbDegraded.Add(1)
		} else {
			cbHealthy.Add(1)
		}
	})

	// Prober: recovers the tracker whenever probes succeed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var probeFails atomic.Bool
	var proberDone sync.WaitGroup
	proberDone.Add(1)
	go func() {
		defer proberDone.Done()
		h.Run(ctx, time.Millisecond, func() error {
			if probeFails.Load() {
				return errors.New("store still broken")
			}
			return nil
		})
	}()

	// Sampler: transition counters must never move backwards.
	samplerStop := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		var lastD, lastH uint64
		for {
			d, hv := degradedC.Value(), healthyC.Value()
			if d < lastD || hv < lastH {
				t.Errorf("transition counters went backwards: degraded %d->%d healthy %d->%d",
					lastD, d, lastH, hv)
				return
			}
			lastD, lastH = d, hv
			select {
			case <-samplerStop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	// The storm: concurrent transitions and readers.
	cause := errors.New("journal write failed")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (w + i) % 4 {
				case 0:
					h.MarkDegraded(cause)
				case 1:
					h.MarkHealthy()
				case 2:
					if err := h.Gate(); err != nil {
						var de *DegradedError
						if !errors.As(err, &de) {
							t.Errorf("Gate() = %v, want *DegradedError", err)
						}
					}
				case 3:
					h.Degraded()
					probeFails.Store(i%2 == 0)
				}
			}
		}(w)
	}
	wg.Wait()

	// Probe-driven recovery: degrade once more with probes passing and
	// wait for Run to flip the tracker healthy.
	probeFails.Store(false)
	h.MarkDegraded(cause)
	deadline := time.Now().Add(5 * time.Second)
	for h.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("prober never recovered the tracker")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	proberDone.Wait()
	close(samplerStop)
	samplerDone.Wait()

	if h.Degraded() {
		t.Error("tracker degraded after recovery")
	}
	if err := h.Gate(); err != nil {
		t.Errorf("Gate() after recovery = %v, want nil", err)
	}
	if probes.With("ok").Value() == 0 {
		t.Error("cp_health_probe_total{outcome=ok} = 0, want > 0")
	}

	// Transitions strictly alternate degraded -> healthy -> degraded...,
	// so losing one would break these invariants.
	d, hv := degradedC.Value(), healthyC.Value()
	if d == 0 {
		t.Fatal("no degraded transitions recorded")
	}
	if hv > d || d-hv > 1 {
		t.Errorf("transition counts degraded=%d healthy=%d — must alternate (0 <= d-h <= 1)", d, hv)
	}
	if cbDegraded.Load() != d || cbHealthy.Load() != hv {
		t.Errorf("callbacks saw %d/%d transitions, counters recorded %d/%d — transitions lost",
			cbDegraded.Load(), cbHealthy.Load(), d, hv)
	}
}
