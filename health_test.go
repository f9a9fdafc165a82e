package contextpref

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestHealthNilSafe(t *testing.T) {
	var h *Health
	if h.Degraded() {
		t.Error("nil Health reports degraded")
	}
	if err := h.Gate(); err != nil {
		t.Errorf("nil Health gate = %v", err)
	}
	h.MarkHealthy()
	h.OnChange(nil)
	if err := h.MarkDegraded(errors.New("x")); err == nil {
		t.Error("nil MarkDegraded returned no error for the caller")
	}
}

func TestHealthTransitions(t *testing.T) {
	h := NewHealth()
	var mu sync.Mutex
	var events []bool
	h.OnChange(func(degraded bool, cause error) {
		mu.Lock()
		events = append(events, degraded)
		mu.Unlock()
	})
	if h.Degraded() || h.Gate() != nil {
		t.Fatal("fresh tracker not healthy")
	}
	cause := errors.New("disk full")
	derr := h.MarkDegraded(cause)
	if !errors.Is(derr, cause) {
		t.Errorf("MarkDegraded error %v does not wrap the cause", derr)
	}
	if !h.Degraded() {
		t.Fatal("not degraded after MarkDegraded")
	}
	gerr := h.Gate()
	var typed *DegradedError
	if !errors.As(gerr, &typed) || !errors.Is(gerr, cause) {
		t.Fatalf("Gate = %v, want *DegradedError wrapping the cause", gerr)
	}
	// Idempotent: the first cause is kept, no second transition.
	h.MarkDegraded(errors.New("later"))
	if !errors.Is(h.Gate(), cause) {
		t.Error("second MarkDegraded replaced the original cause")
	}
	h.MarkHealthy()
	h.MarkHealthy()
	if h.Degraded() || h.Gate() != nil {
		t.Fatal("not healthy after MarkHealthy")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || !events[0] || events[1] {
		t.Errorf("transition events = %v, want [true false]", events)
	}
}

// countingPersister fails (or succeeds) on demand and counts calls, so
// the fail-fast gate is observable: a degraded system must reject
// mutations without consulting the persister.
type countingPersister struct {
	mu    sync.Mutex
	calls int
	fail  bool
}

func (p *countingPersister) record() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if p.fail {
		return errors.New("disk full")
	}
	return nil
}

func (p *countingPersister) setFail(v bool) {
	p.mu.Lock()
	p.fail = v
	p.mu.Unlock()
}

func (p *countingPersister) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

func (p *countingPersister) PersistCreateUser(context.Context, string) error { return p.record() }
func (p *countingPersister) PersistAdd(context.Context, string, ...Preference) error {
	return p.record()
}
func (p *countingPersister) PersistRemove(context.Context, string, Preference) error {
	return p.record()
}
func (p *countingPersister) PersistDropUser(context.Context, string) error { return p.record() }

// TestSystemDegradedReadOnly: a persist failure flips the system
// read-only — the failing mutation surfaces a *DegradedError wrapping
// the *PersistError, later mutations fail fast without touching the
// persister, reads keep working — and MarkHealthy restores writes.
func TestSystemDegradedReadOnly(t *testing.T) {
	env, rel := persistFixture(t)
	sys, err := NewSystem(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPersister{}
	h := NewHealth()
	sys.SetPersister(p, "")
	sys.SetHealth(h)

	if err := sys.LoadProfile("[] => type = park : 0.4"); err != nil {
		t.Fatal(err)
	}
	p.setFail(true)
	err = sys.LoadProfile("[] => type = museum : 0.8")
	var degraded *DegradedError
	if !errors.As(err, &degraded) {
		t.Fatalf("failed mutation = %v, want *DegradedError", err)
	}
	var persist *PersistError
	if !errors.As(err, &persist) {
		t.Errorf("degraded error %v does not wrap the *PersistError", err)
	}
	if !h.Degraded() {
		t.Fatal("health not degraded after persist failure")
	}
	// Fail-fast: no persister call for the next mutation.
	before := p.count()
	if err := sys.LoadProfile("[] => type = zoo : 0.2"); !errors.As(err, &degraded) {
		t.Fatalf("mutation while degraded = %v, want *DegradedError", err)
	}
	if _, err := sys.RemovePreference(MustPreference(
		MustDescriptor(), Clause{Attr: "type", Op: OpEq, Val: String("park")}, 0.4)); !errors.As(err, &degraded) {
		t.Fatalf("remove while degraded = %v, want *DegradedError", err)
	}
	if got := p.count(); got != before {
		t.Errorf("degraded mutations reached the persister (%d calls)", got-before)
	}
	// Reads and resolution still serve; failed mutations never applied.
	if n := sys.NumPreferences(); n != 1 {
		t.Errorf("NumPreferences = %d, want 1", n)
	}
	st, err := sys.NewState(env.Param(0).Hierarchy().DetailedValues()[0],
		env.Param(1).Hierarchy().DetailedValues()[0],
		env.Param(2).Hierarchy().DetailedValues()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Resolve(st); err != nil {
		t.Errorf("resolve while degraded = %v", err)
	}
	// Recovery: probe fixed the store, mutations work again.
	p.setFail(false)
	h.MarkHealthy()
	if err := sys.LoadProfile("[] => type = museum : 0.8"); err != nil {
		t.Errorf("mutation after recovery = %v", err)
	}
	if n := sys.NumPreferences(); n != 2 {
		t.Errorf("NumPreferences after recovery = %d, want 2", n)
	}
}

// TestDirectoryDegraded: a persist failure on one user's mutation
// flips the shared health, gating user creation and removal while
// existing users stay readable.
func TestDirectoryDegraded(t *testing.T) {
	env, rel := persistFixture(t)
	d, err := NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPersister{}
	h := NewShardHealth(0)
	d.SetPersister(p)
	d.SetShardHealth(0, h)

	alice, err := d.User("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.LoadProfile("[] => type = park : 0.4"); err != nil {
		t.Fatal(err)
	}
	p.setFail(true)
	var degraded *DegradedError
	if err := alice.LoadProfile("[] => type = zoo : 0.2"); !errors.As(err, &degraded) {
		t.Fatalf("failed mutation = %v, want *DegradedError", err)
	}
	if _, err := d.User("bob"); !errors.As(err, &degraded) {
		t.Fatalf("user creation while degraded = %v, want *DegradedError", err)
	}
	if _, err := d.RemoveUser("alice"); !errors.As(err, &degraded) {
		t.Fatalf("RemoveUser while degraded = %v, want *DegradedError", err)
	}
	if _, ok := d.Lookup("alice"); !ok {
		t.Error("existing user unreadable while degraded")
	}
	sys, _ := d.Lookup("alice")
	if _, err := sys.ExportProfile(); err != nil {
		t.Errorf("export while degraded = %v", err)
	}
	p.setFail(false)
	h.MarkHealthy()
	if _, err := d.User("bob"); err != nil {
		t.Errorf("user creation after recovery = %v", err)
	}
}

// TestHealthRun: the probe loop flips back to healthy once the store
// answers, and does nothing while healthy.
func TestHealthRun(t *testing.T) {
	h := NewHealth()
	var mu sync.Mutex
	probes, failuresLeft := 0, 2
	probe := func() error {
		mu.Lock()
		defer mu.Unlock()
		probes++
		if failuresLeft > 0 {
			failuresLeft--
			return fmt.Errorf("still broken")
		}
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Run(ctx, time.Millisecond, probe)
	}()
	h.MarkDegraded(errors.New("disk full"))
	deadline := time.Now().Add(5 * time.Second)
	for h.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never recovered the store")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if probes < 3 {
		t.Errorf("probes = %d, want >= 3 (two failures then success)", probes)
	}
	mu.Unlock()
	cancel()
	<-done
}

// TestHealthRunWakesOnDegrade: while healthy the probe loop holds no
// timer at all — it is woken by the degraded transition and probes
// immediately. The hour-long interval proves the wakeup: a loop that
// slept on a ticker would not probe within the test's lifetime.
func TestHealthRunWakesOnDegrade(t *testing.T) {
	h := NewHealth()
	probed := make(chan struct{}, 16)
	probe := func() error {
		probed <- struct{}{}
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Run(ctx, time.Hour, probe)
	}()

	// Healthy: the loop must not probe at all.
	select {
	case <-probed:
		t.Fatal("probe fired while healthy")
	case <-time.After(20 * time.Millisecond):
	}

	// Two full degrade → recover cycles prove the wakeup re-arms.
	for cycle := 0; cycle < 2; cycle++ {
		h.MarkDegraded(errors.New("disk full"))
		select {
		case <-probed:
		case <-time.After(5 * time.Second):
			t.Fatalf("cycle %d: degraded transition did not wake the probe loop", cycle)
		}
		deadline := time.Now().Add(5 * time.Second)
		for h.Degraded() {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: loop never marked the store healthy", cycle)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	<-done
}
