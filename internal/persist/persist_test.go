package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mbsp/internal/faultinject"
)

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%03d: some payload bytes %d", i, i*i))
	}
	return out
}

// isPrefix reports whether got is a byte-exact prefix of want.
func isPrefix(got, want [][]byte) bool {
	if len(got) > len(want) {
		return false
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}

func appendAll(t *testing.T, path string, ps [][]byte) {
	t.Helper()
	j, err := OpenJournal(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRoundTrip: append, recover, byte-identical records, clean
// stats.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	want := payloads(20)
	appendAll(t, path, want)
	got, stats, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || !isPrefix(got, want) {
		t.Fatalf("recovered %d records, want %d identical", len(got), len(want))
	}
	if stats.CorruptRecords != 0 || stats.TruncatedBytes != 0 || stats.BadHeader {
		t.Fatalf("clean file reports corruption: %+v", stats)
	}
}

// TestMissingAndEmpty: a missing file and a header-only file both
// recover to zero records without error or corruption counts.
func TestMissingAndEmpty(t *testing.T) {
	dir := t.TempDir()
	got, stats, err := RecoverFile(filepath.Join(dir, "nope"))
	if err != nil || len(got) != 0 || stats != (ScanStats{}) {
		t.Fatalf("missing file: %v %v %+v", got, err, stats)
	}
	path := filepath.Join(dir, "journal")
	appendAll(t, path, nil) // creates header only
	got, stats, err = RecoverFile(path)
	if err != nil || len(got) != 0 || stats != (ScanStats{}) {
		t.Fatalf("header-only file: %v %v %+v", got, err, stats)
	}
}

// TestTornTailTruncatesAndRepairs: cutting the file mid-record loses
// exactly the torn record, counts it, repairs the file in place, and
// appends after recovery extend the valid prefix.
func TestTornTailTruncatesAndRepairs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	want := payloads(10)
	appendAll(t, path, want)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last record.
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	got, stats, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 || !isPrefix(got, want) {
		t.Fatalf("recovered %d records after torn tail, want 9", len(got))
	}
	if stats.CorruptRecords != 1 || stats.TruncatedBytes == 0 {
		t.Fatalf("torn tail not counted: %+v", stats)
	}
	// The file was repaired: appending then recovering again sees the
	// 9-record prefix plus the new record, with no corruption.
	appendAll(t, path, [][]byte{[]byte("after-recovery")})
	got, stats, err = RecoverFile(path)
	if err != nil || stats.CorruptRecords != 0 {
		t.Fatalf("post-repair recover: %v %+v", err, stats)
	}
	if len(got) != 10 || string(got[9]) != "after-recovery" {
		t.Fatalf("post-repair append lost: %d records", len(got))
	}
}

// TestBitFlipStopsScan: flipping one payload byte mid-file invalidates
// that record; recovery keeps the prefix before it and drops the rest
// (everything after an invalid record is untrusted).
func TestBitFlipStopsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	want := payloads(10)
	appendAll(t, path, want)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40 // lands in some middle record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !isPrefix(got, want) || len(got) >= 10 {
		t.Fatalf("recovered %d records after bit flip, want a strict prefix", len(got))
	}
	if stats.CorruptRecords != 1 || stats.TruncatedBytes == 0 {
		t.Fatalf("flip not counted: %+v", stats)
	}
}

// TestInsaneLengthField: a length field pointing past the file (or past
// MaxRecordBytes) is corruption, not an allocation attempt.
func TestInsaneLengthField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	want := payloads(3)
	appendAll(t, path, want)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the first record's length with garbage.
	binary.LittleEndian.PutUint32(data[headerSize:], 0xfffffff0)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || stats.CorruptRecords != 1 {
		t.Fatalf("insane length recovered %d records, stats %+v", len(got), stats)
	}
}

// TestBadHeader: a file that is not a record log at all recovers to a
// counted cold start and is truncated so a journal can be started in
// its place.
func TestBadHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(path, []byte("not a log at all, sorry"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || !stats.BadHeader || stats.TruncatedBytes == 0 {
		t.Fatalf("bad header not degraded: %d records, %+v", len(got), stats)
	}
	// The truncated file now opens as a fresh journal.
	appendAll(t, path, [][]byte{[]byte("fresh")})
	got, stats, err = RecoverFile(path)
	if err != nil || len(got) != 1 || stats.CorruptRecords != 0 {
		t.Fatalf("fresh journal after bad header: %d records, %v, %+v", len(got), err, stats)
	}
}

// TestStoreRotateAndRecover: the snapshot/journal lifecycle — append,
// rotate, append more, reopen: snapshot records come back first, then
// the post-rotation journal records.
func TestStoreRotateAndRecover(t *testing.T) {
	dir := t.TempDir()
	opts := Options{}
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Snapshot) != 0 || len(rec.Journal) != 0 || !rec.SnapshotTime.IsZero() {
		t.Fatalf("fresh store recovered state: %+v", rec)
	}
	ps := payloads(6)
	for _, p := range ps[:4] {
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if s.JournalRecords() != 4 {
		t.Fatalf("journal records = %d", s.JournalRecords())
	}
	if err := s.Rotate(ps[:4]); err != nil {
		t.Fatal(err)
	}
	if s.JournalRecords() != 0 || s.SnapshotTime().IsZero() {
		t.Fatalf("rotation bookkeeping: records=%d snap=%v", s.JournalRecords(), s.SnapshotTime())
	}
	for _, p := range ps[4:] {
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !isPrefix(rec2.Snapshot, ps[:4]) || len(rec2.Snapshot) != 4 {
		t.Fatalf("snapshot records wrong: %d", len(rec2.Snapshot))
	}
	if len(rec2.Journal) != 2 || !bytes.Equal(rec2.Journal[0], ps[4]) {
		t.Fatalf("journal records wrong: %d", len(rec2.Journal))
	}
	if rec2.SnapshotTime.IsZero() {
		t.Fatal("snapshot time lost")
	}
	if rec2.Stats.CorruptRecords != 0 || rec2.Stats.Records != 6 {
		t.Fatalf("clean store reports corruption: %+v", rec2.Stats)
	}
}

// TestCrashBetweenSnapshotAndTruncate: a rotation that died after the
// rename but before the journal truncate recovers both files; applying
// journal over snapshot is idempotent, so nothing is lost or doubled
// at the caller (which keys records).
func TestCrashBetweenSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	opts := Options{}
	s, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(3)
	for _, p := range ps {
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash: snapshot written, journal NOT reset.
	if err := WriteSnapshot(filepath.Join(dir, snapshotName), ps, opts); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Snapshot) != 3 || len(rec.Journal) != 3 {
		t.Fatalf("post-crash recovery: snapshot=%d journal=%d", len(rec.Snapshot), len(rec.Journal))
	}
}

// TestStaleSnapshotTmpRemoved: a crashed rotation's temp file is swept
// on open and never mistaken for a snapshot.
func TestStaleSnapshotTmpRemoved(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, snapshotName+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(rec.Snapshot) != 0 || rec.Stats.BadHeader {
		t.Fatalf("stale tmp treated as state: %+v", rec.Stats)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale snapshot.tmp not removed")
	}
}

// TestInjectedFaultSweep is the acceptance property for the filesystem
// fault modes: for every mode (and all three at once) across many
// seeds, a journal written through the injector recovers to a
// byte-exact prefix of the committed records — never a panic, an
// error, or a non-prefix — and corruption on disk is counted.
func TestInjectedFaultSweep(t *testing.T) {
	modes := [][]faultinject.Mode{
		{faultinject.TornWrite},
		{faultinject.ShortWrite},
		{faultinject.ChecksumFlip},
		faultinject.FSModes(),
	}
	want := payloads(40)
	for _, ms := range modes {
		for seed := uint64(1); seed <= 12; seed++ {
			inj := faultinject.New(seed, 0.15, 0, ms...)
			path := filepath.Join(t.TempDir(), "journal")
			j, err := OpenJournal(path, Options{Inject: inj})
			if err != nil {
				t.Fatal(err)
			}
			committed := 0 // appends acknowledged with err == nil
			sawCrash := false
			for _, p := range want {
				err := j.Append(p)
				switch {
				case err == nil:
					if sawCrash {
						t.Fatalf("%v seed %d: append succeeded after injected crash", ms, seed)
					}
					committed++
				case errors.Is(err, ErrInjectedCrash):
					sawCrash = true
				default:
					t.Fatalf("%v seed %d: unexpected append error %v", ms, seed, err)
				}
				if sawCrash {
					break
				}
			}
			j.Close()

			got, stats, err := RecoverFile(path)
			if err != nil {
				t.Fatalf("%v seed %d: recover error %v", ms, seed, err)
			}
			if !isPrefix(got, want) {
				t.Fatalf("%v seed %d: recovered records are not a prefix of the committed stream", ms, seed)
			}
			// Acknowledged-but-corrupted records (short writes, flips) may
			// be lost — that loss must be visible in the stats.
			if len(got) < committed && stats.CorruptRecords == 0 {
				t.Fatalf("%v seed %d: lost %d acknowledged records silently (stats %+v)",
					ms, seed, committed-len(got), stats)
			}
			// A second recovery of the repaired file is clean and agrees.
			again, stats2, err := RecoverFile(path)
			if err != nil || len(again) != len(got) || stats2.CorruptRecords != 0 {
				t.Fatalf("%v seed %d: repaired file not stable: %d vs %d records, %+v, %v",
					ms, seed, len(again), len(got), stats2, err)
			}
		}
	}
}

// TestInjectedSnapshot: snapshot writes through a hot flip injector
// produce a snapshot whose recovery is still a counted prefix.
func TestInjectedSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, snapshotName)
	want := payloads(10)
	inj := faultinject.New(3, 0.3, 0, faultinject.ChecksumFlip)
	if err := WriteSnapshot(path, want, Options{Inject: inj}); err != nil {
		t.Fatal(err)
	}
	got, stats, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !isPrefix(got, want) {
		t.Fatal("injected snapshot recovery is not a prefix")
	}
	if len(got) < len(want) && stats.CorruptRecords == 0 {
		t.Fatalf("silent snapshot loss: %d/%d records, %+v", len(got), len(want), stats)
	}
}

// TestDeterministicInjection: the same seed produces the same on-disk
// bytes, so chaos runs over the persistence layer are reproducible.
func TestDeterministicInjection(t *testing.T) {
	want := payloads(30)
	image := func() []byte {
		inj := faultinject.New(7, 0.2, 0, faultinject.FSModes()...)
		path := filepath.Join(t.TempDir(), "journal")
		j, err := OpenJournal(path, Options{Inject: inj})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range want {
			if err := j.Append(p); err != nil {
				break
			}
		}
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(image(), image()) {
		t.Fatal("same seed produced different on-disk images")
	}
}

// TestOversizedRecordRejected pins the write-time guard at both bounds
// that make oversized payloads dangerous: just past MaxRecordBytes
// (recovery would truncate the record as corruption, silently dropping
// durably-written data) and at 4 GiB (the uint32 length field itself
// would wrap, reframing the payload's tail as garbage records). Both
// must fail fast with ErrRecordTooLarge, write nothing, and leave the
// journal appendable. The payloads are never touched, so the huge
// allocations stay lazy zero pages.
func TestOversizedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")
	j, err := OpenJournal(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	for _, size := range []int{MaxRecordBytes + 1, 4 << 30} {
		err := j.Append(make([]byte, size))
		if !errors.Is(err, ErrRecordTooLarge) {
			t.Fatalf("Append(%d bytes): got %v, want ErrRecordTooLarge", size, err)
		}
		if err := WriteSnapshot(filepath.Join(dir, "snap"), [][]byte{make([]byte, size)}, Options{}); !errors.Is(err, ErrRecordTooLarge) {
			t.Fatalf("WriteSnapshot(%d bytes): got %v, want ErrRecordTooLarge", size, err)
		}
	}
	// The journal must remain appendable after rejections: an oversized
	// payload is a caller error, not a writer failure.
	if err := j.Append(make([]byte, 8)); err != nil {
		t.Fatalf("append after rejections: %v", err)
	}
	if got := j.Records(); got != 1 {
		t.Fatalf("journal holds %d records, want 1 (rejected appends must write nothing)", got)
	}
	// The rejected WriteSnapshot must not have left a snapshot behind.
	if _, err := os.Stat(filepath.Join(dir, "snap")); !os.IsNotExist(err) {
		t.Fatalf("rejected snapshot left a file: %v", err)
	}
}
