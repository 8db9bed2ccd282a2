package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"deptree/internal/relation"
)

// frameCommands are the local budgeted commands, each with the flags it
// needs besides the frame's to run on the hotels fixture.
var frameCommands = []struct {
	name string
	cmd  func([]string) error
	args []string
}{
	{"discover", cmdDiscover, []string{"-algo", "tane"}},
	{"validate", cmdValidate, []string{"-fd", "address->region"}},
	{"repair", cmdRepair, []string{"-fd", "address->region"}},
	{"profile", cmdProfile, nil},
	{"stream", cmdStream, []string{"-algo", "tane", "-batch-rows", "15", "-q"}},
}

// withStdin runs f with os.Stdin reading the file at path.
func withStdin(t *testing.T, path string, f func()) {
	t.Helper()
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	old := os.Stdin
	os.Stdin = in
	defer func() { os.Stdin = old }()
	f()
}

// helpText returns what cmd prints for -h: the usage and the flag
// defaults.
func helpText(t *testing.T, cmd func([]string) error) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	cerr := cmd([]string{"-h"})
	w.Close()
	os.Stderr = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(cerr, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", cerr)
	}
	return string(out)
}

// TestRunFrameSharedFlags: every local budgeted command declares the
// frame's flags with their defaults (-workers the CPU count, the budgets
// and the input bound 0, so flag's usage prints no default for them),
// accepts them set explicitly, and reads "-in -" from stdin with the
// stdout the file path gives (the relation's name aside, which is the
// input's: the path, or "stdin"). Under -max-input-mb an input past the
// bound fails the same way from a file and from stdin, after reading
// one byte past the bound.
func TestRunFrameSharedFlags(t *testing.T) {
	path := writeHotelsCSV(t)
	big := filepath.Join(t.TempDir(), "big.csv")
	if err := os.WriteFile(big, []byte("a,b\n"+strings.Repeat("x,y\n", 300_000)), 0o644); err != nil {
		t.Fatal(err)
	}
	workersDefault := regexp.MustCompile(`(?m)^  -workers int\n.*\(default (\d+)\)$`)
	for _, c := range frameCommands {
		t.Run(c.name, func(t *testing.T) {
			help := helpText(t, c.cmd)
			m := workersDefault.FindStringSubmatch(help)
			if m == nil || m[1] != strconv.Itoa(runtime.NumCPU()) {
				t.Errorf("-workers default = %v, want %d:\n%s", m, runtime.NumCPU(), help)
			}
			for _, name := range []string{"in", "timeout", "max-tasks", "max-input-mb", "metrics-addr", "trace-out"} {
				usage := regexp.MustCompile(`(?m)^  -` + name + ` \w+\n.*$`).FindString(help)
				if usage == "" || strings.Contains(usage, "(default") {
					t.Errorf("-%s usage %q, want the flag with a zero default", name, usage)
				}
			}

			shared := []string{"-workers", "2", "-timeout", "0", "-max-tasks", "0", "-max-input-mb", "0"}
			fromFile, err := capture(t, func() error {
				return c.cmd(append(append([]string{"-in", path}, shared...), c.args...))
			})
			if err != nil {
				t.Fatalf("-in %s: %v", path, err)
			}
			var fromStdin string
			withStdin(t, path, func() {
				fromStdin, err = capture(t, func() error {
					return c.cmd(append(append([]string{"-in", "-"}, shared...), c.args...))
				})
			})
			if err != nil {
				t.Fatalf("-in -: %v", err)
			}
			if want := strings.ReplaceAll(fromFile, path, "stdin"); fromStdin != want {
				t.Fatalf("-in - stdout differs from the file's:\n--- stdin ---\n%s--- file ---\n%s", fromStdin, want)
			}

			bounded := append([]string{"-max-input-mb", "1"}, c.args...)
			_, fileErr := capture(t, func() error { return c.cmd(append([]string{"-in", big}, bounded...)) })
			var stdinErr error
			withStdin(t, big, func() {
				_, stdinErr = capture(t, func() error { return c.cmd(append([]string{"-in", "-"}, bounded...)) })
			})
			var tooBig *relation.ErrInputTooLarge
			if !errors.As(stdinErr, &tooBig) || tooBig.Got != 1<<20+1 {
				t.Fatalf("-in - past -max-input-mb 1: %v, want the bound tripped one byte past it", stdinErr)
			}
			if fileErr == nil || fileErr.Error() != stdinErr.Error() {
				t.Fatalf("-in %s past -max-input-mb 1: %v, want %v as from stdin", big, fileErr, stdinErr)
			}
		})
	}
}
