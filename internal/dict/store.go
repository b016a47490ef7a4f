package dict

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"cpsinw/internal/resultstore"
)

// cacheSize bounds the dictionaries a Store keeps in memory. A mult16
// dictionary is tens of megabytes decoded and a durable server writes
// one per campaign, so only the few most recently stored or loaded
// dictionaries stay resident: diagnosing a campaign right after it
// finished is a memory hit, anything older reads the artifact from disk.
const cacheSize = 4

// Store is a content-addressed artifact directory: one <key>.cpd file
// per campaign, where the key is the campaign's canonical SHA-256 hex
// key. Puts and loads pass through a small LRU; puts are atomic
// (tmp + rename) so a crashed writer never leaves a half-written
// artifact behind.
type Store struct {
	dir    string
	mu     sync.Mutex
	recent []*Dictionary // most recently used first, at most cacheSize
}

// ArtifactExt is the artifact file suffix.
const ArtifactExt = ".cpd"

// Open creates the directory if needed and returns a store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("dict: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir reports the backing directory.
func (s *Store) Dir() string { return s.dir }

// ValidKey reports whether key is a well-formed artifact key, for
// callers that want to reject bad input before hitting the store.
// Artifact keys share the result store's form — exactly the 64
// lowercase hex digits of a SHA-256 — which also guards against path
// traversal.
func ValidKey(key string) bool { return resultstore.ValidKey(key) }

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+ArtifactExt)
}

// Put persists the dictionary under its Meta.Key and returns the file
// path and compressed size. The write is atomic within the store
// directory.
func (s *Store) Put(d *Dictionary) (string, int64, error) {
	if !ValidKey(d.Meta.Key) {
		return "", 0, fmt.Errorf("dict: invalid artifact key %q", d.Meta.Key)
	}
	raw, err := d.Marshal()
	if err != nil {
		return "", 0, err
	}
	size, err := resultstore.WriteAtomic(s.dir, d.Meta.Key+ArtifactExt, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
	if err != nil {
		return "", 0, err
	}
	s.mu.Lock()
	s.rememberLocked(d)
	s.mu.Unlock()
	return s.path(d.Meta.Key), size, nil
}

// Get loads the dictionary for key, from cache or disk. os.ErrNotExist
// surfaces (wrapped) when no artifact is stored under the key.
func (s *Store) Get(key string) (*Dictionary, error) {
	if !ValidKey(key) {
		return nil, fmt.Errorf("dict: invalid artifact key %q", key)
	}
	s.mu.Lock()
	for _, d := range s.recent {
		if d.Meta.Key == key {
			s.rememberLocked(d)
			s.mu.Unlock()
			return d, nil
		}
	}
	s.mu.Unlock()
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, err
	}
	d, err := Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("dict: artifact %s: %w", key, err)
	}
	if d.Meta.Key != key {
		return nil, fmt.Errorf("dict: artifact %s carries key %q", key, d.Meta.Key)
	}
	s.mu.Lock()
	s.rememberLocked(d)
	s.mu.Unlock()
	return d, nil
}

// rememberLocked makes d the most recently used dictionary, replacing
// any older one under its key and dropping the least recently used
// beyond cacheSize. The caller holds s.mu.
func (s *Store) rememberLocked(d *Dictionary) {
	next := make([]*Dictionary, 1, cacheSize)
	next[0] = d
	for _, o := range s.recent {
		if o.Meta.Key != d.Meta.Key && len(next) < cacheSize {
			next = append(next, o)
		}
	}
	s.recent = next
}

// Stat reports whether an artifact exists for key and its size on disk,
// without parsing it.
func (s *Store) Stat(key string) (int64, bool) {
	if !ValidKey(key) {
		return 0, false
	}
	fi, err := os.Stat(s.path(key))
	if err != nil {
		return 0, false
	}
	return fi.Size(), true
}

// Keys lists the artifact keys present on disk, sorted by filename.
func (s *Store) Keys() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	keys := []string{}
	for _, e := range ents {
		name := e.Name()
		if len(name) == 64+len(ArtifactExt) && filepath.Ext(name) == ArtifactExt && ValidKey(name[:64]) {
			keys = append(keys, name[:64])
		}
	}
	return keys, nil
}
