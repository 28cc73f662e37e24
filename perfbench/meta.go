package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// commitID names the code under test: the git commit when the working
// directory is a git checkout, otherwise a SHA-256 over the tracked-style
// source tree (every regular file outside .git and .bench_build, by
// path), so a checkout without history still records what it measured.
func commitID() string {
	if c := gitHead(".git"); c != "" {
		return "git:" + c
	}
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries just drop out of the hash
		}
		if d.IsDir() && (p == ".git" || p == ".bench_build") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// gitHead resolves HEAD in a .git directory without running git.
func gitHead(dir string) string {
	b, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	b, err = os.ReadFile(filepath.Join(dir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}
