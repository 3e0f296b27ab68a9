package main

import (
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"distperm/internal/dataset"
)

// TestMain runs the test binary as the CLI when DISTPERM_RUN_MAIN is set,
// so a test can check what a command line prints and how it exits.
func TestMain(m *testing.M) {
	if os.Getenv("DISTPERM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadParameters: a site count outside 1..n is a one-line error and exit
// status 2, never a panic.
func TestBadParameters(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "5", "-k", "8"},
		{"-k", "0"},
		{"-k", "-3"},
		{"-n", "0", "-k", "3"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-n", "50"}, args...)...)
		cmd.Env = append(os.Environ(), "DISTPERM_RUN_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit status 2", args, err)
		}
		msg := stderr.String()
		if strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one line and no stack trace", args, msg)
		}
	}
}

// TestBuildDataset: the flag-resolution wrapper routes -file to the shared
// reader and -gen to the shared generators (both covered in depth by
// internal/dataset's own tests).
func TestBuildDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds, err := dataset.Load(rng, "uniform", "", 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 50 {
		t.Errorf("n = %d, want 50", ds.N())
	}
	if _, err := dataset.Load(rng, "bogus", "", 10, 2); err == nil {
		t.Error("unknown generator should error")
	}
	path := filepath.Join(t.TempDir(), "points.txt")
	if err := os.WriteFile(path, []byte("0.1 0.2\n0.3 0.4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err = dataset.Load(rng, "uniform", path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 {
		t.Errorf("file dataset n = %d, want 2", ds.N())
	}
}
