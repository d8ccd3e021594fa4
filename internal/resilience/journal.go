package resilience

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Journal is a write-ahead log of completed work units, one JSON object
// per line keyed by a content hash. A sweep appends each unit's result the
// moment it completes; a killed sweep reopens the same file and skips
// every key already present, so resumption never recomputes finished
// work. The reader tolerates a truncated final line — the expected state
// after a crash mid-append.
//
// Every line carries a content digest over its key and data, written
// ahead of the data so truncation inside the data leaves the digest
// intact to disagree. A line whose digest does not verify — a torn tail
// that garbage bytes happened to complete into valid JSON, a bit flip, a
// foreign writer — is rejected exactly like a parse failure: the journal
// is append-only, so everything from the first bad line on is
// untrustworthy and is truncated away before appending resumes.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	entries map[string]json.RawMessage
	order   []string
}

type journalLine struct {
	Key string `json:"key"`
	// Sum is lineSum(Key, Data): hex SHA-256 binding the data to its key.
	Sum  string          `json:"sum"`
	Data json.RawMessage `json:"data"`
}

// lineSum digests one journal line's key and data with a separator no key
// contains, so (key, data) pairs cannot collide by concatenation.
func lineSum(key string, data []byte) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// OpenJournal opens (or creates) the journal at path, loading every intact
// entry. A later duplicate key overwrites an earlier one.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{entries: make(map[string]json.RawMessage)}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// intact tracks the byte length of the valid prefix; a torn trailing
	// line (crash mid-append) is cut off before appending resumes so the
	// re-run entry starts on a clean line.
	intact := 0
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail: torn
		}
		line := bytes.TrimSpace(data[off : off+nl])
		off += nl + 1
		if len(line) == 0 {
			intact = off
			continue
		}
		var e journalLine
		if err := json.Unmarshal(line, &e); err != nil {
			// A corrupt line makes everything after it untrustworthy in an
			// append-only file; the units it recorded simply re-run.
			break
		}
		if e.Sum != lineSum(e.Key, e.Data) {
			// Parsed but fails its digest: a torn line that stray bytes
			// completed into valid JSON, or tampered content. Same policy
			// as a parse failure.
			break
		}
		if _, seen := j.entries[e.Key]; !seen {
			j.order = append(j.order, e.Key)
		}
		j.entries[e.Key] = e.Data
		intact = off
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := f.Truncate(int64(intact)); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Seek(int64(intact), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	return j, nil
}

// Get unmarshals the entry for key into v, reporting whether it exists.
func (j *Journal) Get(key string, v any) (bool, error) {
	j.mu.Lock()
	data, ok := j.entries[key]
	j.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(data, v); err != nil {
		return true, fmt.Errorf("journal entry %s: %w", key, err)
	}
	return true, nil
}

// Has reports whether key is journaled.
func (j *Journal) Has(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.entries[key]
	return ok
}

// Put appends an entry for key and syncs it to disk before returning —
// the write-ahead property: once Put returns, a crash cannot lose the
// entry.
func (j *Journal) Put(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal entry %s: %w", key, err)
	}
	line, err := json.Marshal(journalLine{Key: key, Sum: lineSum(key, data), Data: data})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal sync: %w", err)
	}
	if _, seen := j.entries[key]; !seen {
		j.order = append(j.order, key)
	}
	j.entries[key] = data
	return nil
}

// Keys returns the distinct journaled keys in first-appended order — the
// iteration surface restart recovery scans to re-admit pending work.
func (j *Journal) Keys() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.order...)
}

// Len returns the number of distinct journaled keys.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Close releases the underlying file. Entries stay readable.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
