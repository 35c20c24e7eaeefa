package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment records what the numbers depend on. Runs compare only on
// the same kernel path: the batch capabilities each role probed to are
// added once the pipeline is up.
func environment(opts options) map[string]any {
	return map[string]any{
		"workload":   opts.workload.name,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"platform":   runtime.GOOS + "/" + runtime.GOARCH,
		"kernel":     kernelRelease(),
		"commit":     commit(opts.root),
		"source":     sourceDigest(opts.root),
		"journal_fs": fsType(opts.scratch()),
		"link":       "loopback 127.0.0.1",
	}
}

// commit is the checkout's git commit, or "none" outside a git work tree.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources and go.mod files, which
// identifies the code measured when there is no commit to name.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just stays out of the digest
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir, where the journal lives.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strings.ToLower(strings.TrimLeft(hex.EncodeToString([]byte{
		byte(st.Type >> 24), byte(st.Type >> 16), byte(st.Type >> 8), byte(st.Type)}), "0"))
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}
