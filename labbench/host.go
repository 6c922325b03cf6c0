package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint stamps a result with the host and the code measured:
// CPU count, GOMAXPROCS, Go version, the git commit when the checkout
// is a repository, and always the source digest (checkouts without .git
// have no commit to name).
func fingerprint(root, source string) string {
	commit := "none"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, source)
}

// sourceDigest hashes go.mod and every .go file under cmd/, internal/
// and labbench/, in path order: everything the benchmark's binaries are
// built from.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal", "labbench"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable trees hash as absent
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
