package persist

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecoverFile drives the recovery scanner over a valid journal of K
// committed records whose image is then damaged by the fuzz input, in one
// of three ways: the fuzz bytes are appended, written over the image at
// an offset, or the image is cut at an offset (a torn tail). Whatever the
// damage, RecoverFile must not panic or fail, must report as many records
// as it returns, and must leave exactly the header plus those records on
// disk (nothing, when the header itself was lost); a second recovery must
// return the same records and find nothing to repair. The committed
// records the damage did not reach always survive as a prefix of the
// recovered ones, and a cut tail recovers exactly that prefix: recovered
// state is a prefix of committed state.
//
//	go test -run '^$' -fuzz '^FuzzRecoverFile$' -fuzztime 10s ./internal/persist
func FuzzRecoverFile(f *testing.F) {
	const (
		modeAppend = iota
		modeOverwrite
		modeCut
		modes
	)
	f.Add(uint8(4), uint8(modeAppend), uint16(0), []byte("garbage"))
	f.Add(uint8(4), uint8(modeAppend), uint16(0), []byte{5, 0, 0, 0})
	f.Add(uint8(4), uint8(modeOverwrite), uint16(60), []byte{0xff})
	f.Add(uint8(4), uint8(modeOverwrite), uint16(3), []byte("X"))
	f.Add(uint8(4), uint8(modeOverwrite), uint16(8), []byte{0xff, 0xff, 0xff, 0x7f})
	f.Add(uint8(3), uint8(modeCut), uint16(70), []byte(nil))
	f.Add(uint8(0), uint8(modeCut), uint16(5), []byte(nil))
	f.Fuzz(func(t *testing.T, k, mode uint8, off uint16, data []byte) {
		committed := payloads(int(k % 8))
		path := filepath.Join(t.TempDir(), "journal")
		appendAll(t, path, committed)
		image, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// first is the offset of the first damaged byte.
		first := len(image)
		switch mode % modes {
		case modeAppend:
			image = append(image, data...)
		case modeOverwrite:
			first = int(off) % (len(image) + 1)
			if end := first + len(data); end > len(image) {
				image = append(image, make([]byte, end-len(image))...)
			}
			copy(image[first:], data)
		case modeCut:
			first = int(off) % (len(image) + 1)
			image = image[:first]
		}
		// intact counts the committed records lying wholly before it.
		intact, end := 0, headerSize
		for _, p := range committed {
			if end += recordHeaderSize + len(p); end > first {
				break
			}
			intact++
		}
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}

		records, stats, err := RecoverFile(path)
		if err != nil {
			t.Fatalf("RecoverFile: %v", err)
		}
		if stats.Records != len(records) {
			t.Fatalf("stats.Records=%d, returned %d records", stats.Records, len(records))
		}
		want := int64(0)
		if len(image) > 0 && !stats.BadHeader {
			want = int64(headerSize)
			for _, r := range records {
				want += int64(recordHeaderSize + len(r))
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != want || stats.TruncatedBytes != int64(len(image))-want {
			t.Fatalf("repaired size %d (truncated %d of %d), want %d", fi.Size(), stats.TruncatedBytes, len(image), want)
		}
		if !isPrefix(committed[:intact], records) {
			t.Fatalf("the %d undamaged committed records are not a prefix of the %d recovered", intact, len(records))
		}
		if mode%modes == modeCut && len(records) != intact {
			t.Fatalf("cut tail: recovered %d records, want the first %d committed", len(records), intact)
		}

		again, stats2, err := RecoverFile(path)
		if err != nil {
			t.Fatalf("second RecoverFile: %v", err)
		}
		if stats2.CorruptRecords != 0 || stats2.TruncatedBytes != 0 || stats2.BadHeader {
			t.Fatalf("second recovery repaired again: %+v", stats2)
		}
		if len(again) != len(records) || !isPrefix(again, records) {
			t.Fatalf("second recovery returned %d records, first %d", len(again), len(records))
		}
	})
}
