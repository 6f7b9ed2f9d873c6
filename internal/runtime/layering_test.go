package runtime

import (
	"go/build"
	"testing"
)

// TestRuntimeDialsNoBackend: the engine runs on the table it is handed,
// so the package imports no wire backend. Building and dialling those is
// the caller's job (the distlock facade, the tests).
func TestRuntimeDialsNoBackend(t *testing.T) {
	pkg, err := build.Default.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "distlock/internal/netlock" || imp == "distlock/internal/cluster" {
			t.Errorf("internal/runtime imports %s", imp)
		}
	}
}
