// Package atomicfile replaces files whole: a temp file written in the
// destination's directory is renamed into place, so no reader sees a
// torn file. Owners Sweep the temps a dead process left when they
// open. Nothing is synced (DESIGN.md §9, Durability).
package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
)

// TempPattern is the os.CreateTemp pattern of this package's temps.
const TempPattern = ".atomic-*.tmp"

// BeforeRename, when non-nil, runs before each rename with the temp's
// path and its destination. It is nil outside tests; the crash tests
// copy data directories in it.
var BeforeRename func(tmp, path string)

// Commit writes a temp in dir with fill, closes it, and hands it to
// place, which moves it into place by calling rename with a path in
// dir, or drops it by not calling it (the content is already stored,
// say). Every path that does not rename removes the temp.
func Commit(dir string, fill func(f *os.File) error, place func(rename func(path string) error) error) (err error) {
	f, err := os.CreateTemp(dir, TempPattern)
	if err != nil {
		return err
	}
	tmp, renamed := f.Name(), false
	defer func() {
		if !renamed {
			err = errors.Join(err, os.Remove(tmp))
		}
	}()
	if err := errors.Join(fill(f), f.Close()); err != nil {
		return err
	}
	return place(func(path string) error {
		if BeforeRename != nil {
			BeforeRename(tmp, path)
		}
		err := os.Rename(tmp, path)
		renamed = err == nil
		return err
	})
}

// Write replaces path with what fill writes.
func Write(path string, fill func(f *os.File) error) error {
	return Commit(filepath.Dir(path), fill, func(rename func(string) error) error { return rename(path) })
}

// WriteFile replaces path with data.
func WriteFile(path string, data []byte) error {
	return Write(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// tempNames are this package's temps and those of the hand-written
// code it replaced, so a directory an older build died in is swept.
var tempNames = []string{TempPattern, ".ingest-*.tmp", "*.tmp[0-9]*", "incarnation.tmp"}

// Sweep removes the temps writers that died mid-commit left in dir.
func Sweep(dir string) error {
	entries, err := os.ReadDir(dir)
	for _, e := range entries {
		for _, p := range tempNames {
			if ok, _ := filepath.Match(p, e.Name()); ok && e.Type().IsRegular() {
				if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
					return err
				}
				break
			}
		}
	}
	return err
}
