//go:build !unix

package indexfile

import "os"

// mmapFile falls back to reading the whole file on hosts without mmap
// support — OpenMapped still works, it just loses the lazy paging.
func mmapFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}

func munmap([]byte) error { return nil }

// syncDir is a no-op on hosts whose directories cannot be fsynced.
func syncDir(string) error { return nil }
