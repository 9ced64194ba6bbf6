package experiments

import (
	"bytes"
	"testing"
)

// The robustness sweep must be deterministic (same plan, same seeds →
// byte-identical table) and must itself enforce the zero-lost-blocks
// acceptance bar — a nonzero lost column returns an error.
func TestFaultsSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full tiny fault sweep twice")
	}
	s, ok := ByName("tiny")
	if !ok {
		t.Fatal("tiny scale missing")
	}
	var a, b bytes.Buffer
	if err := runFaultsSweep(&RunConfig{Scale: s}, &a); err != nil {
		t.Fatal(err)
	}
	if err := runFaultsSweep(&RunConfig{Scale: s}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("fault sweep not deterministic:\n--- run 1\n%s--- run 2\n%s", a.String(), b.String())
	}
}
