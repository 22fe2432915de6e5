// Package sectable is the container of a GSIR3 snapshot: the header, the
// table of tagged sections and the aligned payloads it frames.
//
//	magic "GSIR3\n" | u16 version=1 | u32 nSections | u32 flags    (16 B)
//	nSections × { tag [4]byte | u32 rsvd | u64 off | u64 len | u32 crc32(payload) | u32 rsvd }
//	u32 crc32(section table)
//	payloads, each at an 8-byte-aligned offset, zero padding between;
//	the file ends exactly at the end of the last payload.
//
// Everything is little-endian. What a section holds is the snapshot
// codec's (the root package's v3Table); this package writes, finds and
// bounds the sections, and checks the table's own checksum — not a
// payload's.
package sectable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The container's framing: its magic and version, the header's and a table
// row's length, and the payloads' alignment.
const (
	Magic     = "GSIR3\n"
	Version   = 1
	HeaderLen = 16
	RowLen    = 32
	Align     = 8

	// MaxSections bounds the declared section count against corrupt
	// headers.
	MaxSections = 64
)

// Section is one parsed row of the table.
type Section struct {
	Tag      string
	Off, Len uint64
	CRC      uint32
}

// Payload is one section on its way to a file.
type Payload struct {
	Tag  string
	Data []byte
}

func align(off uint64) uint64 { return (off + Align - 1) &^ (Align - 1) }

// Write lays the sections out behind the header, the table and its CRC —
// each payload at an 8-aligned offset, the file ending with the last
// payload — and writes the image.
func Write(w io.Writer, secs []Payload) error {
	head := binary.LittleEndian.AppendUint16([]byte(Magic), Version)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(secs)))
	head = binary.LittleEndian.AppendUint32(head, 0)
	off := align(uint64(HeaderLen + len(secs)*RowLen + 4))
	for _, s := range secs {
		head = append(head, s.Tag...)
		head = binary.LittleEndian.AppendUint32(head, 0)
		head = binary.LittleEndian.AppendUint64(head, off)
		head = binary.LittleEndian.AppendUint64(head, uint64(len(s.Data)))
		head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(s.Data))
		head = binary.LittleEndian.AppendUint32(head, 0)
		off = align(off + uint64(len(s.Data)))
	}
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(head[HeaderLen:]))

	// A bufio.Writer keeps its first error and returns it from every later
	// call, Flush included, so only Flush is checked.
	bw := bufio.NewWriter(w)
	bw.Write(head)
	pos := uint64(len(head))
	var pad [Align]byte
	for _, s := range secs {
		bw.Write(pad[:align(pos)-pos])
		bw.Write(s.Data)
		pos = align(pos) + uint64(len(s.Data))
	}
	return bw.Flush()
}

// ParseHeader parses the 10 header bytes that follow the magic and
// returns the declared section count.
func ParseHeader(hdr []byte) (int, error) {
	if v := binary.LittleEndian.Uint16(hdr); v != Version {
		return 0, fmt.Errorf("geosir: unsupported GSIR3 version %d", v)
	}
	nsec := binary.LittleEndian.Uint32(hdr[2:])
	if nsec == 0 || nsec > MaxSections {
		return 0, fmt.Errorf("geosir: implausible GSIR3 section count %d", nsec)
	}
	return int(nsec), nil
}

// ParseRows parses a section table (its trailing CRC included) for a file
// of fileLen bytes — the one table parse, shared by Parse and a reader of
// a stream's prefix. Rows are checked for alignment, order and bounds;
// payload CRCs are NOT verified here.
func ParseRows(table []byte, fileLen uint64) ([]Section, error) {
	tableLen := len(table) - 4
	if crc32.ChecksumIEEE(table[:tableLen]) != binary.LittleEndian.Uint32(table[tableLen:]) {
		return nil, fmt.Errorf("geosir: GSIR3 section table checksum mismatch")
	}
	secs := make([]Section, tableLen/RowLen)
	prevEnd := uint64(HeaderLen + len(table))
	for i := range secs {
		row := table[i*RowLen:]
		s := Section{
			Tag: string(row[0:4]),
			Off: binary.LittleEndian.Uint64(row[8:]),
			Len: binary.LittleEndian.Uint64(row[16:]),
			CRC: binary.LittleEndian.Uint32(row[24:]),
		}
		if s.Off%Align != 0 {
			return nil, fmt.Errorf("geosir: section %s at misaligned offset %d", s.Tag, s.Off)
		}
		if s.Off < prevEnd || s.Off > fileLen || s.Len > fileLen-s.Off {
			return nil, fmt.Errorf("geosir: section %s [%d,+%d) outside file of %d bytes",
				s.Tag, s.Off, s.Len, fileLen)
		}
		prevEnd = s.Off + s.Len
		secs[i] = s
	}
	return secs, nil
}

// Parse validates the header and section table of a complete GSIR3 byte
// image (magic included) and returns the table rows, which must cover the
// file exactly.
func Parse(data []byte) ([]Section, error) {
	if len(data) < HeaderLen {
		return nil, fmt.Errorf("geosir: GSIR3 snapshot truncated at %d bytes", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("geosir: bad magic %q", string(data[:len(Magic)]))
	}
	nsec, err := ParseHeader(data[len(Magic):HeaderLen])
	if err != nil {
		return nil, err
	}
	tableEnd := HeaderLen + nsec*RowLen + 4
	if len(data) < tableEnd {
		return nil, fmt.Errorf("geosir: GSIR3 section table truncated")
	}
	secs, err := ParseRows(data[HeaderLen:tableEnd], uint64(len(data)))
	if err != nil {
		return nil, err
	}
	if end := secs[nsec-1].Off + secs[nsec-1].Len; end != uint64(len(data)) {
		return nil, fmt.Errorf("geosir: %d trailing bytes after final section", uint64(len(data))-end)
	}
	return secs, nil
}
