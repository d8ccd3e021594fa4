// Package diag is the shared diagnostics core of the static-analysis layer:
// a severity-tagged, source-located diagnostic record, a deterministic
// ordering over collections of them, and text/JSON renderers. Producers
// (internal/lint, the verify-each mode) build Diagnostics;
// consumers (cmd/hls-lint, cmd/hls-adaptor, tests) sort and render them.
package diag

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Severity ranks a diagnostic.
type Severity int

// Severity levels, in ascending order.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = SevInfo
	case "warning":
		*s = SevWarning
	case "error":
		*s = SevError
	default:
		return fmt.Errorf("diag: unknown severity %q", name)
	}
	return nil
}

// Diagnostic is one finding. Location is textual (function, block, and the
// defining instruction's SSA name or opcode) so diagnostics survive the IR
// they were produced from; BlockPos/InstrPos carry the positional order for
// deterministic sorting.
type Diagnostic struct {
	Severity   Severity `json:"severity"`
	Check      string   `json:"check"`
	Func       string   `json:"func,omitempty"`
	Block      string   `json:"block,omitempty"`
	Instr      string   `json:"instr,omitempty"`
	Message    string   `json:"message"`
	Suggestion string   `json:"suggestion,omitempty"`

	// File names the input the diagnostic came from, for multi-file runs.
	File string `json:"file,omitempty"`
	// ID is a stable content-derived fingerprint assigned by AssignIDs; it
	// keys hls-lint's -explain lookup and SARIF partial fingerprints.
	ID string `json:"id,omitempty"`
	// Explanation carries the analysis state behind the finding (value
	// ranges, points-to sets, constant branch conditions), shown by
	// hls-lint -explain.
	Explanation string `json:"explanation,omitempty"`

	// BlockPos/InstrPos are the block's index in the function and the
	// instruction's index in its block; -1 marks function- or block-level
	// diagnostics. They order diagnostics deterministically and are
	// reported in JSON for tooling.
	BlockPos int `json:"blockPos"`
	InstrPos int `json:"instrPos"`
}

// String renders the diagnostic as one line (plus an indented suggestion).
func (d Diagnostic) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s[%s]", d.Severity, d.Check)
	if d.File != "" {
		fmt.Fprintf(&sb, " %s", d.File)
	}
	if d.Func != "" {
		fmt.Fprintf(&sb, " @%s", d.Func)
	}
	if d.Block != "" {
		fmt.Fprintf(&sb, " %%%s", d.Block)
	}
	if d.Instr != "" {
		fmt.Fprintf(&sb, " %%%s", d.Instr)
	}
	fmt.Fprintf(&sb, ": %s", d.Message)
	if d.ID != "" {
		fmt.Fprintf(&sb, " [%s]", d.ID)
	}
	if d.Suggestion != "" {
		fmt.Fprintf(&sb, "\n    suggestion: %s", d.Suggestion)
	}
	return sb.String()
}

// Diagnostics is an ordered collection of findings.
type Diagnostics []Diagnostic

// Sort orders the collection deterministically: by function, then position
// (function-level diagnostics first), then check name, then message.
func (ds Diagnostics) Sort() {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.BlockPos != b.BlockPos {
			return a.BlockPos < b.BlockPos
		}
		if a.InstrPos != b.InstrPos {
			return a.InstrPos < b.InstrPos
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// AssignIDs stamps every diagnostic with a stable content-derived ID: the
// first 8 hex digits of a SHA-256 over the locating fields plus the message,
// salted with an occurrence counter so duplicates stay distinct. IDs are
// deterministic across runs of the same input, which is what lets a user
// re-run with -explain <id> and hit the same finding.
func (ds Diagnostics) AssignIDs() {
	seen := map[string]int{}
	for i := range ds {
		d := &ds[i]
		key := strings.Join([]string{
			d.File, d.Check, d.Func, d.Block, d.Instr,
			fmt.Sprintf("%d:%d", d.BlockPos, d.InstrPos), d.Message,
		}, "|")
		n := seen[key]
		seen[key] = n + 1
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d", key, n)))
		d.ID = hex.EncodeToString(sum[:])[:8]
	}
}

// FindID returns the diagnostic with the given ID.
func (ds Diagnostics) FindID(id string) (Diagnostic, bool) {
	for _, d := range ds {
		if d.ID == id {
			return d, true
		}
	}
	return Diagnostic{}, false
}

// HasErrors reports whether any diagnostic has error severity.
func (ds Diagnostics) HasErrors() bool {
	for _, d := range ds {
		if d.Severity >= SevError {
			return true
		}
	}
	return false
}

// Count returns the number of diagnostics at exactly the given severity.
func (ds Diagnostics) Count(sev Severity) int {
	n := 0
	for _, d := range ds {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// Filter returns the diagnostics at or above the given severity, preserving
// order.
func (ds Diagnostics) Filter(min Severity) Diagnostics {
	var out Diagnostics
	for _, d := range ds {
		if d.Severity >= min {
			out = append(out, d)
		}
	}
	return out
}

// ByCheck returns the diagnostics produced by the named check, preserving
// order.
func (ds Diagnostics) ByCheck(name string) Diagnostics {
	var out Diagnostics
	for _, d := range ds {
		if d.Check == name {
			out = append(out, d)
		}
	}
	return out
}

// Text renders the collection one diagnostic per line, followed by a
// summary line. The collection is sorted first, so output is deterministic.
func (ds Diagnostics) Text() string {
	ds.Sort()
	var sb strings.Builder
	for _, d := range ds {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%d error(s), %d warning(s), %d info(s)\n",
		ds.Count(SevError), ds.Count(SevWarning), ds.Count(SevInfo))
	return sb.String()
}

// jsonReport is the stable JSON envelope.
type jsonReport struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Errors      int          `json:"errors"`
	Warnings    int          `json:"warnings"`
	Infos       int          `json:"infos"`
}

// JSON renders the collection as an indented, deterministic JSON report.
func (ds Diagnostics) JSON() ([]byte, error) {
	ds.Sort()
	rep := jsonReport{
		Diagnostics: ds,
		Errors:      ds.Count(SevError),
		Warnings:    ds.Count(SevWarning),
		Infos:       ds.Count(SevInfo),
	}
	if rep.Diagnostics == nil {
		rep.Diagnostics = []Diagnostic{}
	}
	return json.MarshalIndent(rep, "", "  ")
}

// AsError converts error-severity diagnostics into a single error (nil when
// none): the first error's text plus a count of the rest. Used by the pass
// managers' verify-each mode to fail a pipeline on broken invariants.
func (ds Diagnostics) AsError() error {
	errs := ds.Filter(SevError)
	if len(errs) == 0 {
		return nil
	}
	errs.Sort()
	if len(errs) == 1 {
		return fmt.Errorf("%s", errs[0])
	}
	return fmt.Errorf("%s (and %d more)", errs[0], len(errs)-1)
}
