// Package image models application service images: root file systems
// packaged by the ASP (the paper assumes RPM packaging, §4.3), the
// ASP-side image repository, and the HTTP/1.1 download performed by the
// SODA Daemon during service priming.
package image

import (
	"fmt"
	"path"
	"sort"
	"strings"
)

// File is one entry in a root file system tree.
type File struct {
	// Path is the absolute path within the image ("/etc/init.d/httpd").
	Path string
	// SizeBytes is the file's size.
	SizeBytes int64
	// Executable marks binaries and init scripts.
	Executable bool
}

// Tree is an in-memory root file system: the unit the SODA Daemon
// downloads and hands to the UML as its root. Paths are unique;
// directories are implicit. A tree is written only while its image is
// built; afterwards every delivery, daemon store and boot shares it, and
// its readers get File values, so nothing outside this package can change
// it.
type Tree struct {
	files map[string]File
}

func newTree() *Tree {
	return &Tree{files: make(map[string]File)}
}

// add inserts a file, normalising the path. Duplicate paths are replaced.
func (t *Tree) add(p string, size int64, executable bool) error {
	cp, err := cleanPath(p)
	if err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("image: negative size for %s", cp)
	}
	t.files[cp] = File{Path: cp, SizeBytes: size, Executable: executable}
	return nil
}

func cleanPath(p string) (string, error) {
	if !strings.HasPrefix(p, "/") {
		return "", fmt.Errorf("image: path %q is not absolute", p)
	}
	cp := path.Clean(p)
	if cp == "/" {
		return "", fmt.Errorf("image: path %q names the root", p)
	}
	return cp, nil
}

// Lookup returns the file at p and whether it exists.
func (t *Tree) Lookup(p string) (File, bool) {
	cp, err := cleanPath(p)
	if err != nil {
		return File{}, false
	}
	f, ok := t.files[cp]
	return f, ok
}

// Contains reports whether the tree holds a file at p.
func (t *Tree) Contains(p string) bool {
	_, ok := t.Lookup(p)
	return ok
}

// Len returns the number of files.
func (t *Tree) Len() int { return len(t.files) }

// SizeBytes returns the total size of all files.
func (t *Tree) SizeBytes() int64 {
	var total int64
	for _, f := range t.files {
		total += f.SizeBytes
	}
	return total
}

// SizeMB returns the total size in whole MiB, rounding up.
func (t *Tree) SizeMB() int { return BytesToMB(t.SizeBytes()) }

// BytesToMB converts a byte count to whole MiB, rounding up.
func BytesToMB(n int64) int {
	const mb = 1 << 20
	return int((n + mb - 1) / mb)
}

// List returns every file sorted by path.
func (t *Tree) List() []File {
	out := make([]File, 0, len(t.files))
	for _, f := range t.files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// ListDir returns the files directly or transitively under dir, sorted.
func (t *Tree) ListDir(dir string) []File {
	cp, err := cleanPath(dir)
	if err != nil {
		return nil
	}
	prefix := cp + "/"
	var out []File
	for p, f := range t.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
