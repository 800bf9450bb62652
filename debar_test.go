package debar

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestStartLocalValidation(t *testing.T) {
	if _, err := StartLocal(0, ServerConfig{}); err == nil {
		t.Fatal("zero servers accepted")
	}
}

// TestStartLocalEphemeralDataDir pins what a deployment without a
// DataDir is: the durable engine on one temporary directory, which Close
// removes.
func TestStartLocalEphemeralDataDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	sys, err := StartLocal(1, ServerConfig{IndexBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	closeSys := sync.OnceFunc(sys.Close)
	defer closeSys()

	src := t.TempDir()
	payload := bytes.Repeat([]byte("ephemeral deployment "), 20000)
	if err := os.WriteFile(filepath.Join(src, "a.txt"), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	cl, err := sys.AssignClient("ephemeral")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Backup("ephemeral-job", src); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunDedup2(); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	if _, err := cl.Restore("ephemeral-job", dst); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dst, "a.txt")); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("restored content differs (err=%v)", err)
	}

	dirs, err := filepath.Glob(filepath.Join(tmp, "debar-local-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 {
		t.Fatalf("TMPDIR holds %d debar-local-* dirs while running, want 1: %v", len(dirs), dirs)
	}
	closeSys()
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("TMPDIR not empty after Close: %v", left)
	}
}

func TestSystemBackupRestore(t *testing.T) {
	// Container must exceed the chunker's 64 KB max chunk plus framing.
	sys, err := StartLocal(2, ServerConfig{ContainerSize: 256 << 10, IndexBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if len(sys.ServerAddrs) != 2 {
		t.Fatalf("server addrs = %d", len(sys.ServerAddrs))
	}

	src := t.TempDir()
	payload := bytes.Repeat([]byte("debar facade "), 40000) // ~0.5 MB
	if err := os.WriteFile(filepath.Join(src, "a.txt"), payload, 0o644); err != nil {
		t.Fatal(err)
	}

	cl, err := sys.AssignClient("facade")
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Backup("facade-job", src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 1 || st.LogicalBytes != int64(len(payload)) {
		t.Fatalf("stats = %+v", st)
	}
	if err := sys.RunDedup2(); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	n, err := cl.Restore("facade-job", dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d files", n)
	}
	got, err := os.ReadFile(filepath.Join(dst, "a.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("restored content differs")
	}
}

func TestAssignClientBalances(t *testing.T) {
	sys, err := StartLocal(2, ServerConfig{IndexBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	a, err := sys.AssignClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.AssignClient("c2")
	if err != nil {
		t.Fatal(err)
	}
	if a.ServerAddr == b.ServerAddr {
		t.Fatalf("both clients assigned to %s; scheduler not balancing", a.ServerAddr)
	}
}

// testHarnesses are internal packages whose callers are tests by design.
var testHarnesses = map[string]bool{
	"debar/internal/faultproxy": true, // the chaos suite's TCP fault proxy
}

// TestEveryInternalPackageHasACaller keeps code without a caller out of
// the tree: every debar/internal package must be imported by some
// non-test package (a test harness: by some test).
func TestEveryInternalPackageHasACaller(t *testing.T) {
	out, err := exec.Command("go", "list", "-f",
		"{{.ImportPath}} {{join .Imports \" \"}} | {{join .TestImports \" \"}} {{join .XTestImports \" \"}}",
		"./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var internal []string
	imported := map[string]bool{}     // by a non-test package
	testImported := map[string]bool{} // by some package's tests
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		prod, tests, _ := strings.Cut(line, "|")
		fields := strings.Fields(prod)
		if strings.HasPrefix(fields[0], "debar/internal/") {
			internal = append(internal, fields[0])
		}
		for _, imp := range fields[1:] {
			imported[imp] = true
		}
		for _, imp := range strings.Fields(tests) {
			testImported[imp] = true
		}
	}
	for _, pkg := range internal {
		switch {
		case testHarnesses[pkg] && !testImported[pkg]:
			t.Errorf("%s: a test harness, but no test imports it", pkg)
		case !testHarnesses[pkg] && !imported[pkg]:
			t.Errorf("%s: no non-test package imports it", pkg)
		}
	}
}

// detRand is a tiny deterministic RNG (splitmix64) for test data.
type detRand struct{ s uint64 }

func newDetRand(seed uint64) *detRand { return &detRand{s: seed} }

func (r *detRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
