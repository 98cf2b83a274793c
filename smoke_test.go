package repro_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// goTool locates the go binary, skipping the test where the toolchain
// is unavailable at test runtime (the compiled test binary can outlive
// the build environment).
func goTool(t *testing.T) string {
	t.Helper()
	path, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	return path
}

// TestExamplesSmoke executes every examples/ program end to end — they
// were previously compile-checked by `go build ./...` but never run, so
// a runtime regression (panic, wrong checksum, deadlock) could ship
// unnoticed. Each example's built-in workload finishes in about a
// second, which is the smoke-test budget.
func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	gobin := goTool(t)
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no example programs found")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(gobin, "run", "./examples/"+name)
			var out, errb bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = &errb
			done := make(chan error, 1)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("example %s: %v\nstderr:\n%s", name, err, errb.String())
				}
			case <-time.After(2 * time.Minute):
				cmd.Process.Kill()
				t.Fatalf("example %s hung", name)
			}
			if out.Len() == 0 {
				t.Fatalf("example %s produced no output", name)
			}
		})
	}
}

// startDCNode launches a built dcnode binary on an ephemeral port and
// returns the address it reports on stderr, plus the process for
// cleanup. extra is appended to its flags.
func startDCNode(t *testing.T, bin string, n, seed, parts, part int, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{
		"-n", fmt.Sprint(n), "-seed", fmt.Sprint(seed),
		"-parts", fmt.Sprint(parts), "-part", fmt.Sprint(part),
		"-listen", "127.0.0.1:0"}, extra...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on 127.0.0.1:"); i >= 0 {
				addrc <- strings.TrimSpace(line[i+len(" on "):])
				break
			}
		}
		close(addrc)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok || addr == "" {
			t.Fatalf("dcnode (part %d) never reported its address", part)
		}
		return addr, cmd
	case <-time.After(30 * time.Second):
		t.Fatalf("dcnode (part %d) startup timed out", part)
	}
	return "", nil
}

// TestDCQAgainstReplicatedDCNodes is the process-level failover surface
// check: four real dcnode processes (2 partitions x 2 replicas), one
// real dcq client connecting with the grouped replica syntax and 2
// masters. The run must complete and report a checksum.
func TestDCQAgainstReplicatedDCNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	gobin := goTool(t)
	bindir := t.TempDir()
	dcnode := filepath.Join(bindir, "dcnode")
	dcq := filepath.Join(bindir, "dcq")
	for _, b := range []struct{ out, pkg string }{{dcnode, "./cmd/dcnode"}, {dcq, "./cmd/dcq"}} {
		if out, err := exec.Command(gobin, "build", "-o", b.out, b.pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.pkg, err, out)
		}
	}

	const n, seed, parts = 6000, 1, 2
	addrs := make([][]string, parts)
	for part := 0; part < parts; part++ {
		for r := 0; r < 2; r++ {
			addr, _ := startDCNode(t, dcnode, n, seed, parts, part)
			addrs[part] = append(addrs[part], addr)
		}
	}

	connect := addrs[0][0] + "|" + addrs[0][1] + "," + addrs[1][0] + "|" + addrs[1][1]
	cmd := exec.Command(dcq,
		"-connect", connect, "-n", fmt.Sprint(n), "-seed", fmt.Sprint(seed),
		"-q", "50000", "-batch", "512", "-masters", "2")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dcq: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "checksum") || !strings.Contains(string(out), "2 partitions") {
		t.Fatalf("unexpected dcq output:\n%s", out)
	}
}

// TestDCNodeMaxVersionFlag: -max-version takes the protocol versions this
// build speaks and nothing else. A version below the floor (or above the
// newest) exits with a usage error naming the range, before a key is
// generated.
func TestDCNodeMaxVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dcnode := filepath.Join(t.TempDir(), "dcnode")
	if out, err := exec.Command(goTool(t), "build", "-o", dcnode, "./cmd/dcnode").CombinedOutput(); err != nil {
		t.Fatalf("build dcnode: %v\n%s", err, out)
	}
	for _, v := range []string{"1", "4", "7"} {
		out, err := exec.Command(dcnode, "-n", "4096", "-parts", "1", "-listen", "127.0.0.1:0", "-max-version", v).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "v5–v6") {
			t.Fatalf("dcnode -max-version %s: %v\n%s\nwant exit status 2 naming v5–v6", v, err, out)
		}
	}
	if addr, _ := startDCNode(t, dcnode, 4096, 1, 1, 0, "-max-version", "5"); addr == "" {
		t.Fatal("dcnode -max-version 5 did not serve")
	}
}
