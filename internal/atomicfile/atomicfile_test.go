package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// names lists dir's entries.
func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out
}

// TestCommitFailuresLeaveDestination: a failing write, close or
// rename, and a place that renames nothing, each leave the
// destination as it was and no temp behind; a commit replaces it.
func TestCommitFailuresLeaveDestination(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	unchanged := func(what string) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil || string(raw) != "old" {
			t.Fatalf("%s: destination = %q, %v; want it unchanged", what, raw, err)
		}
		if got := names(t, dir); !reflect.DeepEqual(got, []string{"table.json"}) {
			t.Fatalf("%s: directory holds %v, want the destination alone", what, got)
		}
	}

	errWrite := errors.New("disk full")
	err := Write(path, func(f *os.File) error {
		if _, err := f.Write([]byte("half")); err != nil {
			return err
		}
		return errWrite
	})
	if !errors.Is(err, errWrite) {
		t.Fatalf("failing write: err = %v, want %v", err, errWrite)
	}
	unchanged("failing write")

	// A fill that closes the file makes Commit's own close fail.
	err = Write(path, func(f *os.File) error { return f.Close() })
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("failing close: err = %v, want os.ErrClosed", err)
	}
	unchanged("failing close")

	// Renaming a file onto a non-empty directory fails.
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(filepath.Join(sub, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	err = Commit(dir, func(f *os.File) error { return nil }, func(rename func(string) error) error { return rename(sub) })
	if err == nil {
		t.Fatal("rename onto a non-empty directory succeeded")
	}
	if err := os.Remove(filepath.Join(sub, "child")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(sub); err != nil {
		t.Fatalf("the failed rename's destination: %v", err)
	}
	unchanged("failing rename")

	if err := Commit(dir, func(f *os.File) error { return nil }, func(func(string) error) error { return nil }); err != nil {
		t.Fatalf("place that renames nothing: %v", err)
	}
	unchanged("no rename")

	var seen []string
	BeforeRename = func(tmp, dst string) {
		raw, err := os.ReadFile(tmp)
		if err != nil || string(raw) != "new" || dst != path || filepath.Dir(tmp) != dir {
			t.Errorf("BeforeRename(%s, %s): temp holds %q, %v", tmp, dst, raw, err)
		}
		seen = append(seen, filepath.Base(tmp))
	}
	defer func() { BeforeRename = nil }()
	if err := WriteFile(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != "new" {
		t.Fatalf("committed destination = %q, %v", raw, err)
	}
	if ok, _ := filepath.Match(TempPattern, seen[0]); len(seen) != 1 || !ok {
		t.Fatalf("BeforeRename saw temps %v, want one named %s", seen, TempPattern)
	}
	if got := names(t, dir); !reflect.DeepEqual(got, []string{"table.json"}) {
		t.Fatalf("after a commit the directory holds %v", got)
	}

	if err := WriteFile(filepath.Join(dir, "missing", "x"), nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("write into a missing directory: err = %v, want ErrNotExist", err)
	}
}

// TestSweep removes this package's temps and the names the code it
// replaced left, and nothing else.
func TestSweep(t *testing.T) {
	dir := t.TempDir()
	temps := []string{".atomic-123.tmp", ".ingest-2725175889.tmp", "jobs.json.tmp991", "sweep-ab-w0.bpc.tmp7", "incarnation.tmp"}
	keep := []string{"incarnation", "index.json", "jobs.journal", "job-000001.json", "sweep-ab-w0.bpc", "x.tmp", "x.tmpa"}
	for _, name := range append(append([]string{}, temps...), keep...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A directory is never a temp, whatever its name.
	if err := os.Mkdir(filepath.Join(dir, ".atomic-9.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	keep = append(keep, ".atomic-9.tmp")
	if err := Sweep(dir); err != nil {
		t.Fatal(err)
	}
	sort.Strings(keep)
	if got := names(t, dir); !reflect.DeepEqual(got, keep) {
		t.Fatalf("after Sweep: %v, want %v", got, keep)
	}
	if err := Sweep(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Sweep of a missing directory: err = %v, want ErrNotExist", err)
	}
}
