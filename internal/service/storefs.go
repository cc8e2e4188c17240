package service

import (
	"fmt"
	"os"
	"sync"
)

// storeFS is the filesystem seam under the result store's disk layer. Every
// IO the store performs goes through this interface, so the fault-injecting
// FaultFS can exercise each failure path deterministically in unit tests —
// torn writes, failed renames, unreadable files — without touching a real
// disk's error behavior.
type storeFS interface {
	MkdirAll(dir string) error
	ReadFile(path string) ([]byte, error)
	// WriteFileSync creates (or truncates) path, writes data and fsyncs the
	// file before closing, so a rename that follows publishes fully-durable
	// bytes — a crash after the rename can never expose a torn bundle.
	WriteFileSync(path string, data []byte) error
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// ReadDir returns the names (not paths) of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
}

// osFS is the real-filesystem storeFS.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) WriteFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	// fsync before close: the subsequent rename must only ever publish
	// bytes that are durable, or a crash between rename and writeback
	// would leave a named-but-torn bundle.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}

// FaultFS wraps a storeFS and fails selected operations on demand — the
// deterministic fault injector behind the store's IO-failure tests. Arm an
// operation with Fail and every call of that kind returns the given error
// until Heal; the underlying filesystem is not touched by failed calls, so
// a test can simulate a full disk (writes fail, reads succeed) or a
// read-corrupting medium precisely and repeatably.
//
// Operation names: "mkdir", "read", "write", "rename", "remove", "readdir".
type FaultFS struct {
	// FS is the wrapped filesystem (nil = the real one).
	FS storeFS

	mu   sync.Mutex
	fail map[string]error
}

// Fail arms op: every subsequent call of that operation returns err.
func (f *FaultFS) Fail(op string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail == nil {
		f.fail = make(map[string]error)
	}
	if err == nil {
		err = fmt.Errorf("faultfs: injected %s failure", op)
	}
	f.fail[op] = err
}

// Heal disarms op; subsequent calls pass through again.
func (f *FaultFS) Heal(op string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.fail, op)
}

// check returns the armed error for op, if any.
func (f *FaultFS) check(op string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fail[op]
}

func (f *FaultFS) inner() storeFS {
	if f.FS != nil {
		return f.FS
	}
	return osFS{}
}

func (f *FaultFS) MkdirAll(dir string) error {
	if err := f.check("mkdir"); err != nil {
		return err
	}
	return f.inner().MkdirAll(dir)
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if err := f.check("read"); err != nil {
		return nil, err
	}
	return f.inner().ReadFile(path)
}

func (f *FaultFS) WriteFileSync(path string, data []byte) error {
	if err := f.check("write"); err != nil {
		return err
	}
	return f.inner().WriteFileSync(path, data)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.check("rename"); err != nil {
		return err
	}
	return f.inner().Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error {
	if err := f.check("remove"); err != nil {
		return err
	}
	return f.inner().Remove(path)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if err := f.check("readdir"); err != nil {
		return nil, err
	}
	return f.inner().ReadDir(dir)
}
