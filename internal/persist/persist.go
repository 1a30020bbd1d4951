// Package persist is the crash-safe persistence layer under the
// serving stack: a versioned, length-prefixed, CRC-checksummed record
// log with an append journal, atomic-rename snapshot rotation, and a
// recovery scanner that tolerates torn, truncated and bit-flipped
// tails.
//
// The design is crash-only: there is no clean-shutdown file format
// distinct from the crashed one. A process may die at any byte of any
// write; recovery reads the log front to back and truncates at the
// first record that fails validation, so the recovered state is always
// a *prefix of the committed record stream* — corruption degrades to a
// counted cold start for the lost suffix, never a panic, an error loop,
// or a wrong record.
//
// On-disk format (all integers little-endian):
//
//	file   := header record*
//	header := magic[8]            "MBSPLG01" (format version in the name)
//	record := length[4] crc[4] payload[length]
//
// crc is CRC-32C (Castagnoli) over the payload. A record is valid iff
// its length is sane (fits the remaining file, under MaxRecordBytes)
// and the checksum matches.
//
// Fsync discipline: the journal fsyncs after every append (a record
// acknowledged to the caller survives power loss); a snapshot is
// written to a temp file, fsynced, renamed over the snapshot name, and
// the directory fsynced — readers see either the old or the new
// snapshot, never a partial one. Snapshot rotation truncates the
// journal only *after* the rename lands, so a crash between the two
// leaves snapshot + full journal; re-applying journal records over the
// snapshot is idempotent for the key-value use above (later stores win,
// exactly as they did live).
//
// Writes optionally consult a *faultinject.Injector (the torn/short/
// flip filesystem modes) so tests and chaos harnesses can produce the
// exact on-disk images crashes produce, deterministically.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"mbsp/internal/faultinject"
)

// magic is the file header: format name plus version. Bump the trailing
// digits on any incompatible format change; recovery treats an unknown
// header as corruption (counted cold start), never as an error.
const magic = "MBSPLG01"

const headerSize = len(magic)
const recordHeaderSize = 8 // uint32 payload length + uint32 CRC-32C

// MaxRecordBytes bounds a single record: a length field above it is
// corruption by definition, not a large record.
const MaxRecordBytes = 1 << 30

// ErrRecordTooLarge is returned (wrapped, match with errors.Is) by
// Journal.Append and WriteSnapshot for a payload over MaxRecordBytes.
// Rejecting at write time matters twice over: recovery treats any length
// field above the bound as corruption and truncates the file there, so
// an oversized record would be written durably and then silently dropped
// on the next open — and past 4 GiB the uint32 length field itself would
// wrap, framing the tail of the payload as garbage "records". Neither
// failure can be diagnosed at recovery time; this error at append time
// can.
var ErrRecordTooLarge = errors.New("persist: record exceeds MaxRecordBytes")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrInjectedCrash is returned by appends after an injected torn write:
// the writer simulates the process dying mid-append, so every later
// write on the same handle fails too.
var ErrInjectedCrash = errors.New("persist: injected torn-write crash")

// Options configure writers. The zero value is production behavior.
type Options struct {
	// Inject corrupts writes with the deterministic filesystem fault
	// modes (torn, short, flip). nil injects nothing.
	Inject *faultinject.Injector
}

// fnv1a hashes a file's base name into the injection fingerprint, so
// the journal's and snapshot's fault streams are decorrelated.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// recordWriter frames and writes records, consulting the injector per
// record. It owns no buffering: a record is one Write call, cut exactly
// where the injector says a crash or short write would cut it.
type recordWriter struct {
	f      *os.File
	opts   Options
	fprint uint64
	seq    uint64
	failed bool
}

func (w *recordWriter) writeRecord(payload []byte) error {
	if w.failed {
		return ErrInjectedCrash
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrRecordTooLarge, len(payload), MaxRecordBytes)
	}
	buf := make([]byte, recordHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	crc := crc32.Checksum(payload, crcTable)
	seq := w.seq
	w.seq++
	if bit := w.opts.Inject.FlipChecksumBit(w.fprint, seq); bit >= 0 {
		crc ^= 1 << uint(bit)
	}
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	copy(buf[recordHeaderSize:], payload)
	if k := w.opts.Inject.TornWriteLen(w.fprint, seq, len(buf)); k < len(buf) {
		w.failed = true
		if _, err := w.f.Write(buf[:k]); err != nil {
			return err
		}
		return ErrInjectedCrash
	}
	if k := w.opts.Inject.ShortWriteLen(w.fprint, seq, len(buf)); k < len(buf) {
		_, err := w.f.Write(buf[:k])
		return err // nil: the lost tail goes unnoticed, exactly the hazard
	}
	_, err := w.f.Write(buf)
	return err
}

// ScanStats describes what recovery found in one file.
type ScanStats struct {
	// Records is the number of valid records recovered.
	Records int
	// CorruptRecords counts invalid records dropped at the tail. The
	// scanner stops at the first invalid record (everything after it is
	// untrusted), so this is 1 whenever the tail was corrupt — the
	// garbage suffix cannot be parsed into a record count.
	CorruptRecords int
	// TruncatedBytes is how many bytes after the last valid record were
	// discarded.
	TruncatedBytes int64
	// BadHeader reports that the file header itself was invalid: the
	// whole file was dropped (counted cold start).
	BadHeader bool
}

// Merge accumulates another file's stats into s.
func (s *ScanStats) Merge(o ScanStats) {
	s.Records += o.Records
	s.CorruptRecords += o.CorruptRecords
	s.TruncatedBytes += o.TruncatedBytes
	s.BadHeader = s.BadHeader || o.BadHeader
}

// RecoverFile scans path and returns every valid record, in write
// order. The file is repaired in place: everything after the last
// valid record (a torn append, a short write's gap, a flipped
// checksum, or trailing garbage) is truncated away, so a subsequent
// append continues from a consistent prefix of the committed stream. A
// missing file recovers to zero records. Only I/O errors are returned
// as errors — corruption is an expected input, reported via ScanStats.
func RecoverFile(path string) ([][]byte, ScanStats, error) {
	var stats ScanStats
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil, stats, nil
	}
	if err != nil {
		return nil, stats, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, stats, err
	}
	size := int64(len(data))
	if size < int64(headerSize) || string(data[:headerSize]) != magic {
		if size > 0 {
			stats.BadHeader = true
			stats.TruncatedBytes = size
			if err := truncateTo(f, 0); err != nil {
				return nil, stats, err
			}
		}
		return nil, stats, nil
	}
	var records [][]byte
	off := int64(headerSize)
	for {
		rest := size - off
		if rest == 0 {
			break
		}
		if rest < int64(recordHeaderSize) {
			stats.CorruptRecords++
			break
		}
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > MaxRecordBytes || length > rest-int64(recordHeaderSize) {
			stats.CorruptRecords++
			break
		}
		payload := data[off+int64(recordHeaderSize) : off+int64(recordHeaderSize)+length]
		if crc32.Checksum(payload, crcTable) != crc {
			stats.CorruptRecords++
			break
		}
		records = append(records, append([]byte(nil), payload...))
		off += int64(recordHeaderSize) + length
	}
	stats.Records = len(records)
	if off < size {
		stats.TruncatedBytes = size - off
		if err := truncateTo(f, off); err != nil {
			return nil, stats, err
		}
	}
	return records, stats, nil
}

func truncateTo(f *os.File, off int64) error {
	if err := f.Truncate(off); err != nil {
		return err
	}
	return f.Sync()
}

// Journal is an append-only record log. Open it after RecoverFile has
// repaired the tail; every Append is fsynced before it returns.
type Journal struct {
	f       *os.File
	w       recordWriter
	path    string
	bytes   int64
	records int64
}

// OpenJournal opens (creating if necessary) the journal at path for
// appending, writing the file header if the file is empty. The caller
// is expected to have run RecoverFile first so the tail is valid.
func OpenJournal(path string, opts Options) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{
		f:    f,
		w:    recordWriter{f: f, opts: opts, fprint: fnv1a(filepath.Base(path))},
		path: path, bytes: size,
	}
	if size == 0 {
		if _, err := f.WriteString(magic); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		j.bytes = int64(headerSize)
	}
	return j, nil
}

// Append writes one record and fsyncs: when Append returns nil the
// record survives power loss.
func (j *Journal) Append(payload []byte) error {
	if err := j.w.writeRecord(payload); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.bytes += int64(recordHeaderSize + len(payload))
	j.records++
	return nil
}

// Size returns the journal's size in bytes (header included).
func (j *Journal) Size() int64 { return j.bytes }

// Records returns how many records this handle has appended.
func (j *Journal) Records() int64 { return j.records }

// Reset truncates the journal back to its header, dropping every
// record: called after the records have been rotated into a snapshot.
func (j *Journal) Reset() error {
	if err := j.f.Truncate(int64(headerSize)); err != nil {
		return err
	}
	if _, err := j.f.Seek(int64(headerSize), io.SeekStart); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.bytes = int64(headerSize)
	j.records = 0
	j.w.failed = false
	return nil
}

// Close fsyncs and closes the journal.
func (j *Journal) Close() error {
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// WriteSnapshot atomically replaces the snapshot at path with the given
// records: write to path+".tmp", fsync, rename over path, fsync the
// directory. A crash at any point leaves either the old or the new
// snapshot intact.
func WriteSnapshot(path string, payloads [][]byte, opts Options) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := recordWriter{f: f, opts: opts, fprint: fnv1a(filepath.Base(path))}
	if _, err := f.WriteString(magic); err != nil {
		f.Close()
		return err
	}
	for _, p := range payloads {
		if err := w.writeRecord(p); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Store is the directory layout the serving stack uses: a snapshot file
// plus an append journal. Recovery order is snapshot records then
// journal records; rotation compacts the journal into a fresh snapshot.
type Store struct {
	dir     string
	opts    Options
	journal *Journal
	snap    time.Time
}

const (
	snapshotName = "snapshot"
	journalName  = "journal"
)

// Recovery is what Open found on disk.
type Recovery struct {
	// Snapshot and Journal are the recovered records, in write order;
	// apply Snapshot first, then Journal (later records win).
	Snapshot, Journal [][]byte
	// Stats merges both files' scan results.
	Stats ScanStats
	// SnapshotTime is the snapshot file's mtime; zero when there is no
	// snapshot.
	SnapshotTime time.Time
}

// Open recovers the store in dir (creating it if necessary) and opens
// the journal for appending. Corrupt or torn files degrade to a valid
// prefix (possibly empty), reported in Recovery.Stats; only real I/O
// failures return an error.
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	// A stale snapshot temp file is a crashed rotation that never
	// renamed; the snapshot it was replacing is still the valid one.
	os.Remove(filepath.Join(dir, snapshotName+".tmp"))

	rec := &Recovery{}
	snapPath := filepath.Join(dir, snapshotName)
	snapRecords, snapStats, err := RecoverFile(snapPath)
	if err != nil {
		return nil, nil, err
	}
	rec.Snapshot = snapRecords
	rec.Stats.Merge(snapStats)
	if fi, err := os.Stat(snapPath); err == nil {
		rec.SnapshotTime = fi.ModTime()
	}

	jPath := filepath.Join(dir, journalName)
	jRecords, jStats, err := RecoverFile(jPath)
	if err != nil {
		return nil, nil, err
	}
	rec.Journal = jRecords
	rec.Stats.Merge(jStats)

	j, err := OpenJournal(jPath, opts)
	if err != nil {
		return nil, nil, err
	}
	return &Store{dir: dir, opts: opts, journal: j, snap: rec.SnapshotTime}, rec, nil
}

// Append journals one record durably.
func (s *Store) Append(payload []byte) error { return s.journal.Append(payload) }

// JournalRecords returns how many records this process has journaled
// since open or the last rotation.
func (s *Store) JournalRecords() int64 { return s.journal.Records() }

// JournalBytes returns the journal's current size in bytes.
func (s *Store) JournalBytes() int64 { return s.journal.Size() }

// SnapshotTime returns the mtime of the current snapshot (zero when
// none has been written).
func (s *Store) SnapshotTime() time.Time { return s.snap }

// Rotate atomically replaces the snapshot with the given records and
// then truncates the journal. A crash after the rename but before the
// truncate leaves snapshot + journal both populated; recovery applies
// the journal records over the snapshot, which is idempotent for
// keyed stores (later records win, as they did live).
func (s *Store) Rotate(payloads [][]byte) error {
	if err := WriteSnapshot(filepath.Join(s.dir, snapshotName), payloads, s.opts); err != nil {
		return err
	}
	s.snap = time.Now()
	return s.journal.Reset()
}

// Close closes the journal. It does not snapshot — callers decide
// whether a drain rotates (mbsp-served does) or dies crash-only.
func (s *Store) Close() error { return s.journal.Close() }
