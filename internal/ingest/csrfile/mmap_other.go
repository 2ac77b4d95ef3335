//go:build !linux

package csrfile

import (
	"fmt"
	"os"
)

// openMapped on platforms without wired-up mmap support falls back to
// the copying loader: same checks, same errors, one extra copy of the
// payload. The Mapped wrapper keeps the call sites identical.
func openMapped(f *os.File, size int, n, m int64, wantCRC uint32) (*Mapped, error) {
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("csrfile: %w", err)
	}
	g, err := ReadBytes(data)
	if err != nil {
		return nil, err
	}
	return &Mapped{g: g}, nil
}

func unmap([]byte) error { return nil }
