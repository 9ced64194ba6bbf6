package machine

// Crash recovery by engine death. Virtual-time engines cannot restart
// once their processes are abandoned, so Recover builds an entirely new
// machine — fresh engine, device, cache, and Duet — and remounts the
// filesystem from the dead machine's durable state. That is exactly the
// semantics of a power cut: everything in memory is gone, only the
// medium and the checkpoint survive. Stack.Remount is the in-place
// model; both go through Stack.recover.

// Recover simulates remounting after a crash: it captures the dead
// machine's durable state (checkpoint + medium) and assembles a new
// machine around it. Call after the crashed engine has stopped (e.g.
// RunFor returned at the crash instant). Fault injection is NOT carried
// over — attach a new plan to the recovered machine if the device should
// stay faulty. Grown bad blocks do carry over: they are medium damage.
func (m *Machine) Recover() (*Machine, error) {
	img, err := m.crashImage()
	if err != nil {
		return nil, err
	}
	nm, err := New(m.cfg)
	if err != nil {
		return nil, err
	}
	// New hooked its Duet into the new cache; that instance is being
	// replaced, so detach it first — otherwise every recovery leaves an
	// orphaned hook double-dispatching page events to a dead Duet (and a
	// second crash of the same machine doubles it again).
	nm.Cache.RemoveHook(nm.Duet)
	if err := nm.recover(img); err != nil {
		return nil, err
	}
	return nm, nil
}

// Robustness aggregates the fault, retry, and recovery counters of one
// machine into a flat record the fault sweep sums over its cells. Each
// field is also a registry counter (see Stack.CollectMetrics).
type Robustness struct {
	TransientFaults int64
	PermanentFaults int64
	TornWrites      int64
	Stalls          int64
	Retries         int64
	Timeouts        int64
	WritebackErrors int64
	Quarantined     int64
	Requeued        int64
	LostPages       int64
	DegradedSess    int64
	Commits         int64
}

// Robustness reports the stack's fault and recovery counters.
func (s *Stack) Robustness() Robustness {
	ds := s.Disk.Stats()
	cs := s.Cache.Stats()
	return Robustness{
		TransientFaults: ds.TransientFaults,
		PermanentFaults: ds.PermanentFaults,
		TornWrites:      ds.TornWrites,
		Stalls:          ds.Stalls,
		Retries:         ds.Retries,
		Timeouts:        ds.Timeouts,
		WritebackErrors: cs.WritebackErrors,
		Quarantined:     cs.QuarantineEvents,
		Requeued:        cs.RequeuedPages,
		LostPages:       cs.LostPages,
		DegradedSess:    s.Duet.Stats().DegradedSessions,
		Commits:         s.FS.Stats().Commits,
	}
}

// Add merges another machine's counters (multi-run aggregation).
func (r *Robustness) Add(o Robustness) {
	r.TransientFaults += o.TransientFaults
	r.PermanentFaults += o.PermanentFaults
	r.TornWrites += o.TornWrites
	r.Stalls += o.Stalls
	r.Retries += o.Retries
	r.Timeouts += o.Timeouts
	r.WritebackErrors += o.WritebackErrors
	r.Quarantined += o.Quarantined
	r.Requeued += o.Requeued
	r.LostPages += o.LostPages
	r.DegradedSess += o.DegradedSess
	r.Commits += o.Commits
}
