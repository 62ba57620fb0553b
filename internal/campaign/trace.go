package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"
)

// Trace is the compact event record of one campaign run: every fault
// action as it fired, view-change completions, fault-detector
// convictions, per-second commit counts, checker verdicts and the
// final per-replica state fingerprints. It is built entirely on the
// simulator's logical thread, so two runs from the same seed produce
// byte-identical traces — the determinism regression test and the
// nightly repro flow both hang off Digest.
type Trace struct {
	lines []string
}

// Addf appends one timestamped line.
func (tr *Trace) Addf(at time.Duration, format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf("t=%010.3fs %s", at.Seconds(), fmt.Sprintf(format, args...)))
}

// Notef appends one untimestamped summary line (final verdicts,
// availability figures).
func (tr *Trace) Notef(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

// Len returns the number of recorded lines.
func (tr *Trace) Len() int { return len(tr.lines) }

// Digest returns the hex SHA-256 over the full trace. Two runs of the
// same profile and seed must produce equal digests; a mismatch means
// nondeterminism crept into the simulator, the protocols or the
// checker, and the run is no longer replayable bit-for-bit.
func (tr *Trace) Digest() string {
	h := sha256.Sum256([]byte(strings.Join(tr.lines, "\n")))
	return hex.EncodeToString(h[:])
}

// WriteTo dumps the trace, one line per event.
func (tr *Trace) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, l := range tr.lines {
		k, err := fmt.Fprintln(w, l)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
