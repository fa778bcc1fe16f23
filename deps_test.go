package atomiccommit

import (
	"os/exec"
	"strings"
	"testing"
)

// TestLibraryLinksNoHTTP: the commit and kv packages depend on none of the
// HTTP, TLS, expvar or pprof stacks. A process that imports them pays for
// those only if it opts into package debughttp; a convenience method that
// serves HTTP from the library would link them into every binary (about
// 2.8 MB of binary and 3 MB of resident memory) and fails here.
func TestLibraryLinksNoHTTP(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command("go", "list", "-deps", "./commit", "./kv").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	banned := map[string]bool{"net/http": true, "net/http/pprof": true, "expvar": true, "crypto/tls": true}
	var found []string
	for _, pkg := range strings.Fields(string(out)) {
		if banned[pkg] {
			found = append(found, pkg)
		}
	}
	if len(found) > 0 {
		t.Fatalf("commit and kv depend on %s; serve HTTP from package debughttp instead", strings.Join(found, ", "))
	}
}
