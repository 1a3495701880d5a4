package netchain_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets compiles and vets the nested benchmark module
// against this tree. benchmark/ has its own go.mod, so `go build ./...`
// and `go test ./...` here never compile it: without this test a changed
// signature it calls would pass and break only the benchmark run.
func TestBenchmarkModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
