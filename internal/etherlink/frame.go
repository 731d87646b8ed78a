// Package etherlink implements the communication channel between the
// FPGA-side emulation and the SW thermal tool on the host PC (Sections 4
// and 6 of the DAC'06 paper): statistics are sent as MAC packets "in our
// own format" over a standard Ethernet connection, and the computed
// temperatures are fed back the same way.
//
// The package provides the raw frame format (MAC header, custom payload,
// CRC32), typed payload codecs for the statistics, temperature and control
// messages, two transports (an in-process loopback and TCP via
// net.Conn), and the device-side Ethernet dispatcher that drains the BRAM
// statistics buffer and applies back-pressure to the VPCM when the link
// saturates.
package etherlink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// EtherType is the experimental ethertype used for framework frames.
const EtherType = 0x88B5

// Version is the frame format version.
const Version = 1

// MAC is a 48-bit hardware address.
type MAC [6]byte

// Default addresses of the two endpoints.
var (
	DeviceMAC = MAC{0x02, 0x54, 0x45, 0x4D, 0x55, 0x01} // locally administered, "TEMU" 01
	HostMAC   = MAC{0x02, 0x54, 0x45, 0x4D, 0x55, 0x02}
)

// String formats the address in the canonical colon notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// MsgType identifies the payload carried by a frame.
type MsgType uint8

// Message types. Codes 1 and 2 carried the single-window statistics and
// temperature messages of older builds, and code 5 their event-log stream;
// they are retired, not reused, so a host refuses such a peer's frames
// instead of misreading them.
const (
	MsgCtrl MsgType = iota + 3 // either direction: control operations
	MsgAck                     // acknowledgement carrying the peer's last seq
	_                          // 5: retired
	MsgNack                    // either direction: resend request from Seq onward
	// The statistics and temperature messages each carry 1..N consecutive
	// sampling windows. The host steps them in order and answers each
	// MsgStatsBatch with one MsgTempBatch, so the framing never changes
	// the thermal trajectory.
	MsgStatsBatch // device -> host: per-component power statistics
	MsgTempBatch  // host -> device: per-cell temperatures for each window
	// MsgSweep carries the design-space sweep coordinator protocol: JSON
	// job/result messages chunked to fit the MTU (see internal/sweep).
	MsgSweep
)

// String returns the message type name.
func (t MsgType) String() string {
	switch t {
	case MsgCtrl:
		return "ctrl"
	case MsgAck:
		return "ack"
	case MsgNack:
		return "nack"
	case MsgStatsBatch:
		return "stats-batch"
	case MsgTempBatch:
		return "temp-batch"
	case MsgSweep:
		return "sweep"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Frame is one framework MAC frame.
type Frame struct {
	Dst     MAC
	Src     MAC
	Type    MsgType
	Seq     uint32
	Payload []byte
}

const (
	headerLen = 6 + 6 + 2 + 1 + 1 + 2 + 4 // macs, ethertype, version, type, len, seq
	crcLen    = 4
	// MaxPayload keeps frames within standard jumbo-free Ethernet MTUs.
	MaxPayload = 1480
)

// Errors returned by Unmarshal.
var (
	ErrTooShort   = errors.New("etherlink: frame too short")
	ErrBadCRC     = errors.New("etherlink: CRC mismatch")
	ErrBadVersion = errors.New("etherlink: unsupported frame version")
	ErrBadType    = errors.New("etherlink: not a framework frame")
	ErrTooLong    = errors.New("etherlink: payload exceeds MTU")
)

// Marshal serialises the frame, appending the CRC32 of everything before it.
func (f *Frame) Marshal() ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLong, len(f.Payload))
	}
	b := make([]byte, headerLen+len(f.Payload)+crcLen)
	copy(b[0:6], f.Dst[:])
	copy(b[6:12], f.Src[:])
	binary.BigEndian.PutUint16(b[12:14], EtherType)
	b[14] = Version
	b[15] = byte(f.Type)
	binary.LittleEndian.PutUint16(b[16:18], uint16(len(f.Payload)))
	binary.LittleEndian.PutUint32(b[18:22], f.Seq)
	copy(b[headerLen:], f.Payload)
	crc := crc32.ChecksumIEEE(b[:headerLen+len(f.Payload)])
	binary.LittleEndian.PutUint32(b[headerLen+len(f.Payload):], crc)
	return b, nil
}

// Unmarshal parses and verifies a serialised frame. The frame's Payload
// aliases b: frames are immutable once marshalled (see Transport).
func Unmarshal(b []byte) (*Frame, error) {
	if len(b) < headerLen+crcLen {
		return nil, ErrTooShort
	}
	if binary.BigEndian.Uint16(b[12:14]) != EtherType {
		return nil, ErrBadType
	}
	if b[14] != Version {
		return nil, ErrBadVersion
	}
	plen := int(binary.LittleEndian.Uint16(b[16:18]))
	if len(b) != headerLen+plen+crcLen {
		return nil, fmt.Errorf("%w: have %d bytes, header claims %d payload", ErrTooShort, len(b), plen)
	}
	want := binary.LittleEndian.Uint32(b[headerLen+plen:])
	if crc32.ChecksumIEEE(b[:headerLen+plen]) != want {
		return nil, ErrBadCRC
	}
	f := &Frame{Type: MsgType(b[15]), Seq: binary.LittleEndian.Uint32(b[18:22])}
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	if plen > 0 {
		f.Payload = b[headerLen : headerLen+plen : headerLen+plen]
	}
	return f, nil
}
