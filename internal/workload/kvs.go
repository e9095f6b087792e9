package workload

import (
	"fmt"

	"sweeper/internal/addr"
)

// The Appendix's store: 2.4M keys, 1M buckets, a 256MB circular log,
// zipf(0.99) popularity and the write-heavy 5/95 GET/SET mix. Only the item
// size varies (512B or 1KB in the paper); it is the packet size.
const (
	kvsKeys     = 2_400_000
	kvsBuckets  = 1 << 20
	kvsLogBytes = 256 << 20
	// kvsGetPercent is the GET share of the mix (0-100).
	kvsGetPercent = 5
	kvsZipfTheta  = 0.99
	// kvsComputeCycles is the fixed per-request service compute (hashing,
	// key comparison, response assembly) outside memory access time.
	kvsComputeCycles = 300
)

// A key's uint32 log slot names every slot of the log, even of one-line
// items: the conversion fails to compile when the log outgrows it.
const _ = uint32(kvsLogBytes/addr.LineBytes - 1)

// validateItemSize reports whether the store can hold items of the given
// size: whole cache lines. The machine caps the packet size, and with it
// the item size, at 64KB, so the constant log always holds an item.
func validateItemSize(itemBytes uint64) error {
	if itemBytes == 0 || itemBytes%addr.LineBytes != 0 {
		return fmt.Errorf("workload: KVS item size %dB must be a positive multiple of %d", itemBytes, addr.LineBytes)
	}
	return nil
}

// KVS is the MICA-like store: a bucket array indexes items appended to a
// circular log. The simulator executes its access plan; the only functional
// state is where each key's latest value lives, so a GET reads the log slot
// of the key's latest SET without gigabytes of values being materialized.
type KVS struct {
	itemBytes uint64

	bucketsBase uint64
	logBase     uint64
	zipf        *Zipf

	// keySlot is the log slot (item index) of each key's latest value:
	// 4 bytes per key, 9.6 MB for the default 2.4M keys.
	keySlot []uint32

	logHead   uint32 // slot the next SET appends to
	logSlots  uint64 // items the circular log holds
	itemLines uint64
}

// NewKVS allocates the store's in-memory structures (per-key slots, Zipf
// sampler). Call Layout before use to place and pre-populate the store in an
// address space.
func NewKVS(itemBytes uint64) *KVS {
	if err := validateItemSize(itemBytes); err != nil {
		panic(err)
	}
	// Note: 2.4M x 1KB items exceed the 256MB circular log, exactly as in
	// MICA — the log wraps and old entries are overwritten in place, so
	// cold keys' locations alias recycled log space. The architectural
	// access pattern (bucket probe + log read/append) is unaffected.
	return &KVS{
		itemBytes: itemBytes,
		zipf:      NewZipf(kvsKeys, kvsZipfTheta, true),
		keySlot:   make([]uint32, kvsKeys),
		logSlots:  kvsLogBytes / itemBytes,
		itemLines: itemBytes / addr.LineBytes,
	}
}

// Layout implements Driver: it lays the store's structures out in the
// address space — buckets then log, always in that order — and
// pre-populates every key, mirroring the paper's pre-populated 2.4M pairs.
// Re-laying-out against a freshly Reset space reuses the per-key slots
// (9.6 MB for the default 2.4M keys) and reproduces the identical initial
// state a fresh store would have.
func (k *KVS) Layout(space *addr.Space) {
	k.bucketsBase = space.AllocApp(kvsBuckets * addr.LineBytes)
	k.logBase = space.AllocApp(kvsLogBytes)
	k.logHead = 0
	// Pre-populate: each key gets an initial log slot, in key order.
	for i := range k.keySlot {
		k.keySlot[i] = k.logHead
		k.advanceLog()
	}
}

func (k *KVS) advanceLog() {
	k.logHead++
	if uint64(k.logHead) == k.logSlots {
		k.logHead = 0
	}
}

// Name labels the driver in reports.
func (k *KVS) Name() string { return fmt.Sprintf("kvs-%dB", k.itemBytes) }

// LogBase returns the base address of the circular log region.
func (k *KVS) LogBase() uint64 { return k.logBase }

// BucketsBase returns the base address of the bucket array.
func (k *KVS) BucketsBase() uint64 { return k.bucketsBase }

// bucketAddr returns the line address of a key's bucket.
func (k *KVS) bucketAddr(key uint64) uint64 {
	h := splitmix64(key*0x9e3779b97f4a7c15 + 1)
	return k.bucketsBase + (h%kvsBuckets)*addr.LineBytes
}

// DecodeOp derives the deterministic (isGet, key) pair for a packet tag.
func (k *KVS) DecodeOp(tag uint64) (isGet bool, key uint64) {
	return k.isGet(tag), k.zipf.Sample(tag)
}

// isGet is DecodeOp's operation half, without the key's zipf draw.
func (k *KVS) isGet(tag uint64) bool {
	return splitmix64(tag^0xdeadbeefcafef00d)%100 < kvsGetPercent
}

// RequestBytes returns the wire size of the request a tag denotes: GETs
// carry only a key (one line); SETs carry the full item, matching the
// paper's "commensurate network packet size".
func (k *KVS) RequestBytes(tag uint64) uint64 {
	if k.isGet(tag) {
		return addr.LineBytes
	}
	return k.itemBytes
}

// PlanRequest implements Driver: a GET probes the bucket and reads the
// item from the log; a SET probes and updates the bucket and appends the
// item at the log head. SET requests carry the full item in the packet
// (read by the core from the RX buffer); GET responses carry the item back.
func (k *KVS) PlanRequest(tag uint64, pktBytes uint64, plan *Plan) {
	plan.reset()
	plan.ComputeCycles = kvsComputeCycles
	isGet, key := k.DecodeOp(tag)
	plan.read(k.bucketAddr(key))
	if isGet {
		// GETs carry only the key: the core reads just the header
		// line of the request packet.
		plan.ReadFullPacket = false
		loc := k.logBase + k.Location(key)
		for i := uint64(0); i < k.itemLines; i++ {
			plan.read(loc + i*addr.LineBytes)
		}
		plan.RespBytes = k.itemBytes
		return
	}
	plan.ReadFullPacket = true
	plan.write(k.bucketAddr(key)) // install the new location
	loc := k.logBase + uint64(k.logHead)*k.itemBytes
	for i := uint64(0); i < k.itemLines; i++ {
		// Log appends are streaming full-line stores: no
		// read-for-ownership fetch of soon-overwritten data.
		plan.writeFull(loc + i*addr.LineBytes)
	}
	// Functional update.
	k.keySlot[key] = k.logHead
	k.advanceLog()
	plan.RespBytes = addr.LineBytes // acknowledgment
}

// WarmLLC implements LLCWarmer: the store's steady state keeps the LLC full
// of dirty appended log lines, so warm-started measurement windows need a
// pre-filled hierarchy.
func (k *KVS) WarmLLC() bool { return true }

// Location returns the byte offset into the log of the key's latest value.
func (k *KVS) Location(key uint64) uint64 { return uint64(k.keySlot[key]) * k.itemBytes }
