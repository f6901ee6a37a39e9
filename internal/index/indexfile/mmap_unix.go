//go:build unix

package indexfile

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// mmapFile maps path read-only. An empty file maps to an empty slice
// (mmap of length 0 is an error on most kernels, and Decode rejects it
// anyway for lacking a header).
func mmapFile(path string) ([]byte, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	st, err := fd.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return []byte{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("indexfile: %s too large to map (%d bytes)", path, size)
	}
	data, err := syscall.Mmap(int(fd.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("indexfile: mmap %s: %w", path, err)
	}
	return data, nil
}

func munmap(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	return syscall.Munmap(data)
}

// syncDir fsyncs a directory, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return errors.Join(err, d.Close())
	}
	return d.Close()
}
