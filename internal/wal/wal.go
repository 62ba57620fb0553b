// Package wal implements the replicas' durable write-ahead log: a
// segmented append-only file format with CRC-framed records and
// batched fsync (group commit).
//
// The log stores opaque payloads under monotonically increasing log
// sequence numbers (LSNs). Records are framed as
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// with little-endian integers, matching the internal/wire byte order.
// Each segment file is named by the LSN of its first record
// (%016x.wal), so recovery can locate any LSN without an index and
// checkpoint truncation can drop whole files.
//
// Durability contract: Append buffers a record into the OS page cache
// and returns; nothing is guaranteed durable until Sync returns. The
// caller amortizes fsync cost by appending a batch of records and
// calling Sync once — the group-commit pattern the replica's deferred
// WAL writer uses. After a crash, Replay yields exactly a prefix of
// the appended records: every record wholly synced survives, a torn
// tail (partial write of the final records) is detected by the CRC
// frame and discarded, and Open truncates the tail so the log is
// append-ready again.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SegmentSuffix is the file extension of log segments.
const SegmentSuffix = ".wal"

// frameHeader is the per-record framing overhead: u32 length + u32 CRC.
const frameHeader = 8

// MaxRecordBytes bounds a single record's payload. The bound keeps a
// corrupted length field from driving huge allocations during replay.
const MaxRecordBytes = 16 << 20

// castagnoli is the CRC-32C polynomial table (hardware-accelerated on
// common platforms).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options parameterizes Open.
type Options struct {
	// SegmentBytes is the size threshold at which the active segment
	// is sealed and a new one started. Default 4 MiB.
	SegmentBytes int64
	// FullFsync forces Sync to flush all metadata (fsync) even where
	// the fdatasync fast path is available. Replicas keep the default;
	// the durability benchmark sets it to measure the delta.
	FullFsync bool
}

// WAL is the durable-log interface the replica's durability layer
// writes to. *Log implements it; a caller may hand the replica a
// wrapper around a *Log instead, as the live benchmark does to time
// each call.
type WAL interface {
	// Append frames payload into the log and returns its LSN. Nothing
	// is durable until Sync returns.
	Append(payload []byte) (uint64, error)
	// Sync makes every record appended so far durable (group commit).
	Sync() error
	// Replay calls fn for each record of the valid durable prefix in
	// LSN order.
	Replay(fn func(lsn uint64, payload []byte) error) error
	// TruncateFront declares records below keep dead; storage is
	// reclaimed at whole-segment granularity when safe.
	TruncateFront(keep uint64) error
}

var _ WAL = (*Log)(nil)

// Log is a write-ahead log rooted at one directory. Methods are safe
// for concurrent use; the replica calls Append/Sync from a deferred
// worker while the event loop owns everything else.
type Log struct {
	mu       sync.Mutex
	dir      string
	segBytes int64
	// segs holds the first LSN of every live segment in ascending
	// order; the last entry is the active segment.
	segs      []uint64
	f         *os.File // active segment
	size      int64    // bytes of valid frames in the active segment
	next      uint64   // next LSN to assign
	closed    bool
	fullFsync bool
}

// Open opens (or creates) the log rooted at dir, repairing any torn
// tail left by a crash: the final segment is truncated to its last
// whole, CRC-valid record so subsequent appends extend a clean prefix.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, segBytes: opts.SegmentBytes, fullFsync: opts.FullFsync}
	names, err := SegmentFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		// Fresh log: LSNs start at 1 so 0 can mean "none".
		l.segs = []uint64{1}
		l.next = 1
		if err := l.createActive(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	for _, name := range names {
		first, ok := parseSegName(filepath.Base(name))
		if !ok {
			return nil, fmt.Errorf("wal: bad segment name %q", name)
		}
		l.segs = append(l.segs, first)
	}
	// Repair the active (last) segment: keep only the valid frame
	// prefix, dropping a torn tail from a crash mid-write.
	last := names[len(names)-1]
	recs, validEnd, err := inspect(last, l.segs[len(l.segs)-1])
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(last, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > validEnd {
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, err
	}
	l.f = f
	l.size = validEnd
	l.next = l.segs[len(l.segs)-1] + uint64(len(recs))
	return l, nil
}

// createActive makes a new empty active segment whose first record
// will be LSN first. Caller holds l.mu (or owns l exclusively).
func (l *Log) createActive(first uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(first)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.size = 0
	return syncDir(l.dir)
}

// Append frames payload into the active segment and assigns it the
// next LSN. The write lands in the OS page cache only; call Sync to
// make everything appended so far durable.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 || len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record payload size %d out of range", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: log is closed")
	}
	if l.size >= l.segBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	frame := make([]byte, frameHeader+len(payload))
	putU32(frame[0:], uint32(len(payload)))
	putU32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	if _, err := l.f.Write(frame); err != nil {
		return 0, err
	}
	l.size += int64(len(frame))
	lsn := l.next
	l.next++
	return lsn, nil
}

// rotate seals the active segment (fsync, so sealed segments are
// always fully durable) and starts a new one. Caller holds l.mu.
func (l *Log) rotate() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.segs = append(l.segs, l.next)
	return l.createActive(l.next)
}

// Sync makes every record appended so far durable — the group-commit
// boundary. On Linux it uses fdatasync: record data and the file size
// extension reach disk, while pure metadata (timestamps) may not —
// exactly what replay needs, one journal write cheaper per commit.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if l.fullFsync {
		return l.f.Sync()
	}
	return datasync(l.f)
}

// Replay calls fn for each record of the log's valid prefix, in LSN
// order, stopping silently at the first gap or corrupt frame (records
// beyond it were never acknowledged as durable). fn's payload slice is
// owned by the caller afterwards. An error from fn aborts the replay
// and is returned.
func (l *Log) Replay(fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	expect := uint64(0)
	for i, first := range l.segs {
		if i > 0 && first != expect {
			return nil // gap between segments: stop at the prefix
		}
		recs, _, err := inspect(filepath.Join(l.dir, segName(first)), first)
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		for _, rec := range recs {
			if err := fn(rec.LSN, rec.Payload); err != nil {
				return err
			}
		}
		expect = first + uint64(len(recs))
		if i < len(l.segs)-1 && expect != l.segs[i+1] {
			return nil // torn sealed segment: everything after is unreachable
		}
	}
	return nil
}

// TruncateFront drops every segment that lies entirely below keep:
// after it returns, Replay still yields every record with LSN >= keep
// (and possibly earlier ones sharing the oldest retained segment). The
// active segment is never removed.
func (l *Log) TruncateFront(keep uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	cut := 0
	for cut+1 < len(l.segs) && l.segs[cut+1] <= keep {
		cut++
	}
	if cut == 0 {
		return nil
	}
	for _, first := range l.segs[:cut] {
		if err := os.Remove(filepath.Join(l.dir, segName(first))); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	l.segs = append([]uint64(nil), l.segs[cut:]...)
	return syncDir(l.dir)
}

// NextLSN returns the LSN the next Append will be assigned.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// ---------------------------------------------------------------------------
// Segment inspection (exported for recovery tests and tooling)
// ---------------------------------------------------------------------------

// RecordPos describes one record's position inside a segment file.
type RecordPos struct {
	LSN     uint64
	Offset  int64 // byte offset of the record's frame header
	Payload []byte
}

// SegmentFiles lists the log's segment files in LSN order.
func SegmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			if _, ok := parseSegName(e.Name()); ok {
				names = append(names, filepath.Join(dir, e.Name()))
			}
		}
	}
	sort.Strings(names) // fixed-width hex names sort in LSN order
	return names, nil
}

// InspectSegment parses a segment file, returning its valid record
// prefix with per-record offsets. Frames after the first invalid one
// are not returned (they are unreachable to Replay).
func InspectSegment(path string) ([]RecordPos, error) {
	first, ok := parseSegName(filepath.Base(path))
	if !ok {
		return nil, fmt.Errorf("wal: bad segment name %q", path)
	}
	recs, _, err := inspect(path, first)
	return recs, err
}

// inspect reads path and scans its valid frame prefix, returning the
// records and the byte length of the prefix.
func inspect(path string, first uint64) ([]RecordPos, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var recs []RecordPos
	off := 0
	lsn := first
	for off+frameHeader <= len(data) {
		n := int(getU32(data[off:]))
		if n == 0 || n > MaxRecordBytes || off+frameHeader+n > len(data) {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != getU32(data[off+4:]) {
			break
		}
		recs = append(recs, RecordPos{LSN: lsn, Offset: int64(off), Payload: payload})
		off += frameHeader + n
		lsn++
	}
	return recs, int64(off), nil
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

func segName(first uint64) string {
	return fmt.Sprintf("%016x%s", first, SegmentSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, SegmentSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(name, SegmentSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// syncDir fsyncs the directory so segment creation and removal are
// themselves durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
