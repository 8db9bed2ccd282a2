// Package wal is the shared durable log under both the jobs store and
// the stream WAL: an append-only file of length-prefixed, CRC32C-framed
// records behind a versioned header. Every durability property — torn-
// tail repair, corruption detection, group-committed fsync, reopen-and-
// verify, atomic compaction, fault-injectable I/O — is built (and
// tortured) exactly once, in Log. Store is the one record codec over it:
// a record is one frame holding its binary encoding. jobs.WALStore is a
// Store of jobs.Record that marks write faults Transient; stream.WAL is
// a Store of stream.WALRecord that adds the Value.Key cell codec and
// fsyncs every append. Each decision about the bytes on disk therefore
// sits in this package alone; the record types declare only their field
// order.
//
// # Frame format
//
// A log file is an 8-byte header followed by zero or more frames:
//
//	header:  "DWAL" | version u16 LE | 2 reserved bytes (zero)
//	frame:   length u32 LE | payloadCRC u32 LE | headerCRC u32 LE | payload
//
// payloadCRC is CRC32C (Castagnoli) of the payload; headerCRC is CRC32C
// of the first 8 bytes (length ‖ payloadCRC). The header CRC is what
// makes the length field trustworthy: without it, a bit flip in the
// length byte of a mid-log frame would send the reader off the rails and
// be indistinguishable from a torn tail, silently truncating every valid
// frame after it. With it, replay classifies damage into exactly three
// failure classes:
//
//   - Torn tail: fewer than 12 bytes remain, the remainder is all
//     zeroes (zero-fill crash artifact), or a frame with a valid header
//     claims more bytes than the file holds. This is the expected result
//     of a crash mid-append: the verified prefix is intact, the tail is
//     truncated on the next append, and TornTail() counts it.
//   - Corruption: the header CRC or payload CRC does not match. Replay
//     stops at the verified prefix and returns *ErrCorruptRecord with
//     the file offset — never a silent truncation, because the frames
//     after the flip may be durably acknowledged records. Opt-in
//     Quarantine mode instead sidecars the damaged suffix to
//     <path>.quarantine and keeps the verified prefix live.
//   - Oversized: a frame whose header is valid but whose length exceeds
//     MaxRecordBytes is rejected with *ErrRecordTooLarge (replacing the
//     old 64 MiB bufio.Scanner cliff, which mislabelled big-but-valid
//     records as errors and silently ended replay).
//
// Appends are crash-consistent without a commit record: the log tracks
// the last verified offset, and if an append fails partway (short write,
// ENOSPC, an fsync error) the file is truncated back to that offset
// before the next append, so a failed append can never corrupt the log
// for later readers.
//
// # Record format
//
// A payload is the format byte FormatBinary (0x01), a Kind byte (jobs or
// stream), then the record's fields in the fixed order its Fields method
// declares, written by Codec: strings raw behind uvarint lengths,
// integers as zigzag varints, floats as their 8 IEEE-754 bytes, one
// presence byte before an optional struct. A payload opening with '{'
// is the JSON encoding logs were written in before; Decode still reads
// it, so an old log, or one with a JSON prefix and binary appends,
// replays unchanged. Appends and compaction write only the binary
// format, and the header version stays 1: a build that reads JSON only
// fails to replay a log this one has appended to or compacted, as
// undecodable. Downgrading is not supported.
//
// # Group commit
//
// Every Append issues the OS write before returning, so a killed
// process loses nothing it acknowledged. Options.SyncEvery and
// SyncInterval schedule the fsync: after every SyncEvery appends, and
// from a background flusher at least every SyncInterval, so a power cut
// loses at most one group and never corrupts the prefix. The jobs store
// groups 8 appends and flushes every 100 ms; the stream WAL fsyncs each
// append (SyncEvery 1).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"sync"
	"time"

	"deptree/internal/fsx"
)

// Magic is the 4-byte file signature opening every framed log.
const Magic = "DWAL"

// Version is the current on-disk format version.
const Version = 1

// HeaderSize is the byte length of the file header.
const HeaderSize = 8

// FrameHeaderSize is the byte length of each frame's header.
const FrameHeaderSize = 12

// compactBufSize is the write buffer ReplaceWith streams a snapshot
// through: large enough that a snapshot of small records costs a few
// write calls, not one per frame.
const compactBufSize = 256 << 10

// DefaultMaxRecordBytes bounds a single frame's payload (1 GiB). It is a
// sanity limit against garbage length fields surviving the header CRC by
// astronomical luck, not an admission limit — admission belongs to the
// codec layers above.
const DefaultMaxRecordBytes = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNotReplayed is returned by Append before Replay has run: appending
// to an unverified log could write after a torn tail or corruption.
var ErrNotReplayed = errors.New("wal: append before replay")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCorruptRecord reports mid-log damage: a frame whose header or
// payload checksum does not match at Offset. The verified prefix
// (every frame before Offset) has already been delivered to the replay
// callback and is intact on disk.
type ErrCorruptRecord struct {
	Path   string
	Offset int64
	Reason string
}

func (e *ErrCorruptRecord) Error() string {
	return fmt.Sprintf("wal: corrupt record in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// ErrRecordTooLarge reports a frame whose valid header claims a payload
// over the configured limit.
type ErrRecordTooLarge struct {
	Path   string
	Offset int64
	Size   int64
	Limit  int64
}

func (e *ErrRecordTooLarge) Error() string {
	return fmt.Sprintf("wal: record in %s at offset %d is %d bytes (limit %d)", e.Path, e.Offset, e.Size, e.Limit)
}

// Options configures Open.
type Options struct {
	// FS is the filesystem the log uses; nil means the real OS.
	FS fsx.FS
	// MaxRecordBytes bounds one frame's payload; 0 means
	// DefaultMaxRecordBytes.
	MaxRecordBytes int64
	// Quarantine makes Replay recover from mid-log corruption instead of
	// returning *ErrCorruptRecord: the unverified suffix is copied to
	// <path>.quarantine, the log is truncated to the verified prefix, and
	// replay succeeds with Quarantined() > 0.
	Quarantine bool
	// SyncEvery fsyncs inside the Append that completes each group of
	// this many appends; 0 leaves fsync to Append's sync argument and
	// to Sync.
	SyncEvery int
	// SyncInterval > 0 runs a background flusher that fsyncs unsynced
	// appends at least this often, until Close.
	SyncInterval time.Duration
}

// Log is an append-only checksummed record log. It is safe for
// concurrent use.
type Log struct {
	path string
	fs   fsx.FS
	opts Options

	mu            sync.Mutex
	f             fsx.File
	size          int64 // current file size including any unverified tail
	lastGood      int64 // end offset of the last verified frame
	pendingRepair bool  // a failed append left bytes past lastGood
	replayed      bool
	closed        bool
	tornTail      int
	quarantined   int
	dirty         int // appends since the last fsync
	appends       int64
	syncs         int64

	flushStop chan struct{}
	flushDone chan struct{}
}

// Open opens or creates the log at path. A new file gets the versioned
// header immediately (and the parent directory is fsync'd so a crash
// right after creation cannot lose the file). Append refuses to run
// until Replay has verified the existing contents.
func Open(path string, opts Options) (*Log, error) {
	if opts.FS == nil {
		opts.FS = fsx.OS
	}
	if opts.MaxRecordBytes <= 0 {
		opts.MaxRecordBytes = DefaultMaxRecordBytes
	}
	l := &Log{path: path, fs: opts.FS, opts: opts}
	if err := l.fs.MkdirAll(fsx.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", fsx.Dir(path), err)
	}
	created := false
	if _, err := l.fs.Stat(path); errors.Is(err, fs.ErrNotExist) {
		created = true
	}
	f, size, err := l.openFile()
	if err != nil {
		return nil, err
	}
	l.f, l.size = f, size
	if l.size == 0 {
		if err := l.writeHeaderLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if created {
		if err := l.fs.SyncDir(fsx.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync dir %s: %w", fsx.Dir(path), err)
		}
	}
	if opts.SyncInterval > 0 {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// flushLoop is the group-commit ticker: an unsynced append never waits
// longer than SyncInterval for its fsync.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			l.Sync()
		}
	}
}

// openFile opens l.path for reading and writing, creating it if absent,
// and returns the handle with the file's size.
func (l *Log) openFile() (fsx.File, int64, error) {
	f, err := l.fs.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: open %s: %w", l.path, err)
	}
	st, err := l.fs.Stat(l.path)
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("wal: stat %s: %w", l.path, err)
	}
	return f, st.Size(), nil
}

func (l *Log) writeHeaderLocked() error {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek %s: %w", l.path, err)
	}
	if _, err := l.f.Write(EncodeHeader()); err != nil {
		return fmt.Errorf("wal: write header %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync header %s: %w", l.path, err)
	}
	l.size = HeaderSize
	l.lastGood = HeaderSize
	return nil
}

// EncodeFrame returns the on-disk encoding of one payload: the 12-byte
// frame header followed by the payload. Exported so tests (and the
// chaos/torture harnesses) can fabricate byte-exact logs, including
// deliberately torn prefixes of a real frame.
func EncodeFrame(payload []byte) []byte {
	buf := make([]byte, FrameHeaderSize+len(payload))
	putFrameHeader(buf, payload)
	copy(buf[FrameHeaderSize:], payload)
	return buf
}

// putFrameHeader writes the 12-byte header framing payload into hdr.
func putFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(hdr[:8], castagnoli))
}

// EncodeHeader returns the 8-byte file header, for tests building logs
// from raw bytes.
func EncodeHeader() []byte {
	var hdr [HeaderSize]byte
	copy(hdr[:], Magic)
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	return hdr[:]
}

// scanResult is one classified frame (or terminal condition) from scan.
type scanResult struct {
	payload []byte
	offset  int64
}

// allZero reports whether b is entirely zero bytes — the signature of a
// zero-filled (preallocated or partially-written) crash tail.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// scan walks data (the file content after the 8-byte header has been
// validated), invoking fn for each verified frame. It returns the end
// offset of the verified prefix, whether a torn tail was dropped, and a
// terminal error (*ErrCorruptRecord / *ErrRecordTooLarge) for the other
// failure classes. Offsets are absolute file offsets.
func scan(path string, data []byte, maxRecord int64, fn func(payload []byte, offset int64) error) (verified int64, torn bool, err error) {
	off := int64(HeaderSize)
	rest := data
	for len(rest) > 0 {
		if len(rest) < FrameHeaderSize {
			return off, true, nil
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		payloadCRC := binary.LittleEndian.Uint32(rest[4:8])
		headerCRC := binary.LittleEndian.Uint32(rest[8:12])
		if crc32.Checksum(rest[:8], castagnoli) != headerCRC {
			// The frame header itself is damaged. If everything from here
			// on is zero it is a zero-fill crash artifact — a torn tail,
			// not corruption.
			if allZero(rest) {
				return off, true, nil
			}
			return off, false, &ErrCorruptRecord{Path: path, Offset: off, Reason: "frame header checksum mismatch"}
		}
		if int64(length) > maxRecord {
			return off, false, &ErrRecordTooLarge{Path: path, Offset: off, Size: int64(length), Limit: maxRecord}
		}
		end := FrameHeaderSize + int(length)
		if len(rest) < end {
			// Valid header promising bytes past EOF: the append was cut
			// short by a crash. Torn tail.
			return off, true, nil
		}
		payload := rest[FrameHeaderSize:end]
		if crc32.Checksum(payload, castagnoli) != payloadCRC {
			return off, false, &ErrCorruptRecord{Path: path, Offset: off, Reason: "payload checksum mismatch"}
		}
		if fn != nil {
			if err := fn(payload, off); err != nil {
				return off, false, err
			}
		}
		off += int64(end)
		rest = rest[end:]
	}
	return off, false, nil
}

// Scan verifies the log at path read-only, without opening it for
// appends, invoking fn for each valid frame. It returns the verified
// end offset, whether a torn tail follows it, and the terminal error (a
// typed corruption/oversize error, or nil). fsck is built on this.
func Scan(fsys fsx.FS, path string, maxRecord int64, fn func(payload []byte, offset int64) error) (verified int64, torn bool, err error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	if len(data) == 0 {
		return 0, false, nil
	}
	if err := checkHeader(path, data); err != nil {
		return 0, false, err
	}
	return scan(path, data[HeaderSize:], maxRecord, fn)
}

// checkHeader validates the 8-byte file header opening data.
func checkHeader(path string, data []byte) error {
	if len(data) < HeaderSize || string(data[:4]) != Magic {
		return &ErrCorruptRecord{Path: path, Offset: 0, Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return fmt.Errorf("wal: %s has unsupported version %d", path, v)
	}
	return nil
}

// Replay verifies the log from the start, invoking fn for each valid
// record payload. The payload slice is only valid during the callback.
// On a clean torn tail the file is truncated to the verified prefix and
// replay succeeds (TornTail reports it). On mid-log corruption replay
// returns *ErrCorruptRecord — unless Quarantine is set, in which case
// the damaged suffix is sidecared to <path>.quarantine, the log is
// truncated to the verified prefix, and replay succeeds. A file without
// the framed header (a JSONL log from before framing, for one) is
// rejected as *ErrCorruptRecord.
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.replayLocked(fn)
}

// Reopen swaps the file handle for a fresh open of the path and
// re-verifies every frame as Replay does, delivering none. It is the
// bounded recovery step after a failed append: a transient write error
// (brief ENOSPC, a hiccuping volume) heals here, while real damage
// fails verification and the log refuses appends until a Reopen or
// Replay succeeds. The failed append's bytes are cut first: a frame
// whose fsync failed is whole and checksummed but unacknowledged, and
// the caller retries it.
func (l *Log) Reopen() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.replayed = false
	if l.pendingRepair {
		if err := l.f.Truncate(l.lastGood); err != nil {
			return fmt.Errorf("wal: repair truncate %s: %w", l.path, err)
		}
	}
	if err := l.reopenLocked(); err != nil {
		return err
	}
	return l.replayLocked(nil)
}

func (l *Log) replayLocked(fn func(payload []byte) error) error {
	data, err := l.fs.ReadFile(l.path)
	if err != nil {
		return fmt.Errorf("wal: read %s: %w", l.path, err)
	}
	if err := checkHeader(l.path, data); err != nil {
		if !allZero(data) {
			return err
		}
		// Entire file (header included) zero-filled or empty-ish:
		// crash during creation. Rewrite the header and start clean.
		if err := l.writeHeaderLocked(); err != nil {
			return err
		}
		if err := l.f.Truncate(HeaderSize); err != nil {
			return fmt.Errorf("wal: truncate %s: %w", l.path, err)
		}
		l.tornTail++
		l.replayed = true
		return nil
	}
	verified, torn, scanErr := scan(l.path, data[HeaderSize:], l.opts.MaxRecordBytes, func(payload []byte, _ int64) error {
		if fn != nil {
			return fn(payload)
		}
		return nil
	})
	if scanErr != nil {
		var corrupt *ErrCorruptRecord
		if l.opts.Quarantine && errors.As(scanErr, &corrupt) {
			if err := l.quarantineLocked(data, verified); err != nil {
				return err
			}
			l.quarantined++
		} else {
			return scanErr
		}
	} else if torn {
		l.tornTail++
	}
	if verified < int64(len(data)) {
		if err := l.f.Truncate(verified); err != nil {
			return fmt.Errorf("wal: truncate %s: %w", l.path, err)
		}
	}
	l.size = verified
	l.lastGood = verified
	l.pendingRepair = false
	l.replayed = true
	return nil
}

// quarantineLocked sidecars the unverified suffix starting at verified
// to <path>.quarantine (appending, so repeated quarantines accumulate).
func (l *Log) quarantineLocked(data []byte, verified int64) error {
	qpath := l.path + ".quarantine"
	qf, err := l.fs.OpenFile(qpath, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open quarantine %s: %w", qpath, err)
	}
	_, werr := qf.Write(data[verified:])
	if werr == nil {
		werr = qf.Sync()
	}
	if cerr := qf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("wal: quarantine %s: %w", qpath, werr)
	}
	return nil
}

// reopenLocked swaps the file handle for a fresh open of l.path; on
// failure the old handle stays.
func (l *Log) reopenLocked() error {
	f, size, err := l.openFile()
	if err != nil {
		return err
	}
	l.f.Close()
	l.f, l.size = f, size
	return nil
}

// Append frames payload and appends it. The file is fsync'd before
// Append returns when sync is true or when this append completes a
// group of Options.SyncEvery; otherwise the frame waits for the next
// Sync. A failed append — a write error, or an fsync error that leaves
// the frame's durability unknown — marks the log for repair: the next
// append first truncates back to the last verified offset, so a failed
// append can never corrupt the log.
func (l *Log) Append(payload []byte, sync bool) error {
	return l.appendFrame(EncodeFrame(payload), sync)
}

// appendFrame is Append of an encoded frame.
func (l *Log) appendFrame(frame []byte, sync bool) error {
	payload := frame[FrameHeaderSize:]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.replayed {
		return ErrNotReplayed
	}
	if int64(len(payload)) > l.opts.MaxRecordBytes {
		return &ErrRecordTooLarge{Path: l.path, Offset: l.size, Size: int64(len(payload)), Limit: l.opts.MaxRecordBytes}
	}
	if l.pendingRepair {
		if err := l.f.Truncate(l.lastGood); err != nil {
			return fmt.Errorf("wal: repair truncate %s: %w", l.path, err)
		}
		l.size = l.lastGood
		l.pendingRepair = false
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek %s: %w", l.path, err)
	}
	n, err := l.f.Write(frame)
	if err != nil {
		if n > 0 {
			l.pendingRepair = true
			l.size = l.lastGood + int64(n)
		}
		return fmt.Errorf("wal: append %s: %w", l.path, err)
	}
	l.size += int64(len(frame))
	l.appends++
	l.dirty++
	if sync || (l.opts.SyncEvery > 0 && l.dirty >= l.opts.SyncEvery) {
		if err := l.syncLocked(); err != nil {
			// The bytes may or may not be durable; treat the frame as
			// suspect and repair before the next append.
			l.pendingRepair = true
			return err
		}
	}
	l.lastGood = l.size
	return nil
}

// Sync fsyncs the appends since the last fsync; with none it is a
// no-op.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.dirty == 0 {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", l.path, err)
	}
	l.dirty = 0
	l.syncs++
	return nil
}

// ReplaceWith atomically replaces the log's contents with the given
// payloads (compaction): a temp file is written with a fresh header and
// all frames through one buffered writer, flushed and fsync'd, renamed
// over the log, and the directory fsync'd. Any failure removes the temp
// file. The log stays usable for appends afterwards.
func (l *Log) ReplaceWith(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	tmp := l.path + ".tmp"
	f, err := l.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact open %s: %w", tmp, err)
	}
	err = func() error {
		// A bufio.Writer keeps its first write error and returns it
		// from every later call, so Flush reports any failed Write.
		bw := bufio.NewWriterSize(f, compactBufSize)
		bw.Write(EncodeHeader())
		hdr := make([]byte, FrameHeaderSize)
		for _, p := range payloads {
			if int64(len(p)) > l.opts.MaxRecordBytes {
				return &ErrRecordTooLarge{Path: tmp, Size: int64(len(p)), Limit: l.opts.MaxRecordBytes}
			}
			putFrameHeader(hdr, p)
			bw.Write(hdr)
			bw.Write(p)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: compact rename %s: %w", l.path, err)
	}
	if err := l.fs.SyncDir(fsx.Dir(l.path)); err != nil {
		return fmt.Errorf("wal: compact sync dir: %w", err)
	}
	if err := l.reopenLocked(); err != nil {
		return err
	}
	l.lastGood = l.size
	l.pendingRepair = false
	l.dirty = 0
	return nil
}

// Close fsyncs any unsynced appends (best effort), closes the log and
// stops the flusher. Closing twice is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if l.dirty > 0 {
		l.syncLocked()
	}
	l.closed = true
	err := l.f.Close()
	l.mu.Unlock()
	if l.flushStop != nil {
		close(l.flushStop)
		<-l.flushDone
	}
	return err
}

// TornTail reports how many torn tails replay has truncated.
func (l *Log) TornTail() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tornTail
}

// Quarantined reports how many corrupt suffixes were sidecared.
func (l *Log) Quarantined() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quarantined
}

// Size reports the current file size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Stats reports how many appends were written and how many fsyncs
// committed them.
func (l *Log) Stats() (appends, syncs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.syncs
}

// Store is a Log of typed records: each record of type R is one frame
// holding its binary encoding (Encode), the one record codec of both
// durable logs, and replay also reads the JSON payloads of logs written
// before it (Decode). Append, Replay and Compact take records in place
// of payloads; every other Log method is promoted unchanged.
type Store[R any, P RecordPtr[R]] struct{ *Log }

// RecordPtr constrains a Store's second type parameter to *R, the
// pointer that implements Record.
type RecordPtr[R any] interface {
	*R
	Record
}

// OpenStore opens the log at path (see Open) as a Store of R records.
func OpenStore[R any, P RecordPtr[R]](path string, opts Options) (*Store[R, P], error) {
	l, err := Open(path, opts)
	if err != nil {
		return nil, err
	}
	return &Store[R, P]{l}, nil
}

// Append encodes rec straight into its frame and appends it on the
// Options' group-commit schedule.
func (s *Store[R, P]) Append(rec R) error {
	frame := encode(P(&rec), FrameHeaderSize)
	putFrameHeader(frame, frame[FrameHeaderSize:])
	return s.Log.appendFrame(frame, false)
}

// Replay verifies the log as Log.Replay does and decodes every record,
// passing each to fn (which may be nil) in log order.
func (s *Store[R, P]) Replay(fn func(rec R) error) error {
	return s.Log.Replay(func(p []byte) error {
		var rec R
		if err := Decode(p, P(&rec)); err != nil || fn == nil {
			return err
		}
		return fn(rec)
	})
}

// Compact atomically replaces the log with recs (see ReplaceWith), in
// the binary format whatever the log held before.
func (s *Store[R, P]) Compact(recs []R) error {
	payloads := make([][]byte, len(recs))
	for i := range recs {
		payloads[i] = Encode(P(&recs[i]))
	}
	return s.Log.ReplaceWith(payloads)
}
