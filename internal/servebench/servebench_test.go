package servebench

import "testing"

// TestOps builds the served-request ops; building them already sends
// each request once and requires a 200.
func TestOps(t *testing.T) {
	ops, err := Ops(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("got %d ops, want 2", len(ops))
	}
}

// BenchmarkServeInstantiate runs the ops under go test -bench, the quick
// way to profile one served request without a full mpsbench run.
func BenchmarkServeInstantiate(b *testing.B) {
	ops, err := Ops(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, op := range ops {
		b.Run(op.Name, func(b *testing.B) {
			b.ReportAllocs()
			op.Fn(b)
		})
	}
}
