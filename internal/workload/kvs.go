package workload

import (
	"fmt"

	"sweeper/internal/addr"
)

// KVSConfig sizes the key-value store. Defaults follow the paper's
// Appendix: 2.4M keys, 1M buckets, a 256MB circular log, zipf(0.99)
// popularity and a 5/95 GET/SET mix.
type KVSConfig struct {
	Keys      uint64
	Buckets   uint64
	LogBytes  uint64
	ItemBytes uint64
	// GetPercent is the GET share of the mix (0-100); the paper's
	// write-heavy workload uses 5.
	GetPercent uint64
	ZipfTheta  float64
	// ComputeCycles is the fixed per-request service compute (hashing,
	// key comparison, response assembly) outside memory access time.
	ComputeCycles uint64
}

// DefaultKVSConfig returns the Appendix configuration for the given item
// size (512B or 1KB in the paper).
func DefaultKVSConfig(itemBytes uint64) KVSConfig {
	return KVSConfig{
		Keys:          2_400_000,
		Buckets:       1 << 20,
		LogBytes:      256 << 20,
		ItemBytes:     itemBytes,
		GetPercent:    5,
		ZipfTheta:     0.99,
		ComputeCycles: 300,
	}
}

// Validate reports configuration errors before the store is built.
func (c KVSConfig) Validate() error {
	if c.ItemBytes == 0 || c.ItemBytes%addr.LineBytes != 0 {
		return fmt.Errorf("workload: KVS item size %dB must be a positive multiple of %d", c.ItemBytes, addr.LineBytes)
	}
	if c.LogBytes < c.ItemBytes {
		return fmt.Errorf("workload: KVS log (%dB) too small to hold one %dB item", c.LogBytes, c.ItemBytes)
	}
	return nil
}

// KVS is the MICA-like store: a bucket array indexes items appended to a
// circular log. The simulator executes its access plan; the functional
// layer stores an 8-byte fingerprint per key so correctness (GET returns
// the latest SET) is testable without materializing gigabytes of values.
type KVS struct {
	cfg KVSConfig

	bucketsBase uint64
	logBase     uint64
	zipf        *Zipf

	// keyLoc is each key's current byte offset into the log (where its
	// latest value lives); keyVer is the fingerprint of the latest SET.
	keyLoc []uint64
	keyVer []uint64

	logHead   uint64
	itemLines uint64

	gets, sets uint64
}

// NewKVS allocates the store's in-memory structures (per-key arrays, Zipf
// sampler). Call Layout before use to place and pre-populate the store in an
// address space.
func NewKVS(cfg KVSConfig) *KVS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Note: 2.4M x 1KB items exceed the 256MB circular log, exactly as in
	// MICA — the log wraps and old entries are overwritten in place, so
	// cold keys' locations alias recycled log space. The architectural
	// access pattern (bucket probe + log read/append) is unaffected.
	return &KVS{
		cfg:       cfg,
		zipf:      NewZipf(cfg.Keys, cfg.ZipfTheta, true),
		keyLoc:    make([]uint64, cfg.Keys),
		keyVer:    make([]uint64, cfg.Keys),
		itemLines: cfg.ItemBytes / addr.LineBytes,
	}
}

// Layout implements Driver: it lays the store's structures out in the
// address space — buckets then log, always in that order — and
// pre-populates every key, mirroring the paper's pre-populated 2.4M pairs.
// Re-laying-out against a freshly Reset space reuses the per-key arrays
// (tens of MB for the default 2.4M keys) and reproduces the identical
// initial state a fresh store would have.
func (k *KVS) Layout(space *addr.Space) {
	k.bucketsBase = space.AllocApp(k.cfg.Buckets * addr.LineBytes)
	k.logBase = space.AllocApp(k.cfg.LogBytes)
	k.logHead = 0
	k.gets, k.sets = 0, 0
	// Pre-populate: each key gets an initial log slot, in key order.
	for i := uint64(0); i < k.cfg.Keys; i++ {
		k.keyLoc[i] = k.logHead
		k.keyVer[i] = splitmix64(i)
		k.advanceLog()
	}
}

func (k *KVS) advanceLog() {
	k.logHead += k.cfg.ItemBytes
	if k.logHead+k.cfg.ItemBytes > k.cfg.LogBytes {
		k.logHead = 0
	}
}

// Name labels the driver in reports.
func (k *KVS) Name() string { return fmt.Sprintf("kvs-%dB", k.cfg.ItemBytes) }

// Config returns the store's configuration.
func (k *KVS) Config() KVSConfig { return k.cfg }

// LogBase returns the base address of the circular log region.
func (k *KVS) LogBase() uint64 { return k.logBase }

// BucketsBase returns the base address of the bucket array.
func (k *KVS) BucketsBase() uint64 { return k.bucketsBase }

// bucketAddr returns the line address of a key's bucket.
func (k *KVS) bucketAddr(key uint64) uint64 {
	h := splitmix64(key*0x9e3779b97f4a7c15 + 1)
	return k.bucketsBase + (h%k.cfg.Buckets)*addr.LineBytes
}

// DecodeOp derives the deterministic (isGet, key) pair for a packet tag.
func (k *KVS) DecodeOp(tag uint64) (isGet bool, key uint64) {
	opBits := splitmix64(tag ^ 0xdeadbeefcafef00d)
	isGet = opBits%100 < k.cfg.GetPercent
	key = k.zipf.Sample(tag)
	return isGet, key
}

// RequestBytes returns the wire size of the request a tag denotes: GETs
// carry only a key (one line); SETs carry the full item, matching the
// paper's "commensurate network packet size".
func (k *KVS) RequestBytes(tag uint64) uint64 {
	if isGet, _ := k.DecodeOp(tag); isGet {
		return addr.LineBytes
	}
	return k.cfg.ItemBytes
}

// PlanRequest implements Driver: a GET probes the bucket and reads the
// item from the log; a SET probes and updates the bucket and appends the
// item at the log head. SET requests carry the full item in the packet
// (read by the core from the RX buffer); GET responses carry the item back.
func (k *KVS) PlanRequest(tag uint64, pktBytes uint64, plan *Plan) {
	plan.reset()
	plan.ComputeCycles = k.cfg.ComputeCycles
	isGet, key := k.DecodeOp(tag)
	plan.read(k.bucketAddr(key))
	if isGet {
		k.gets++
		// GETs carry only the key: the core reads just the header
		// line of the request packet.
		plan.ReadFullPacket = false
		loc := k.logBase + k.keyLoc[key]
		for i := uint64(0); i < k.itemLines; i++ {
			plan.read(loc + i*addr.LineBytes)
		}
		plan.RespBytes = k.cfg.ItemBytes
		return
	}
	k.sets++
	plan.ReadFullPacket = true
	plan.write(k.bucketAddr(key)) // install the new location
	loc := k.logBase + k.logHead
	for i := uint64(0); i < k.itemLines; i++ {
		// Log appends are streaming full-line stores: no
		// read-for-ownership fetch of soon-overwritten data.
		plan.writeFull(loc + i*addr.LineBytes)
	}
	// Functional update.
	k.keyLoc[key] = k.logHead
	k.keyVer[key] = splitmix64(tag)
	k.advanceLog()
	plan.RespBytes = addr.LineBytes // acknowledgment
}

// WarmLLC implements LLCWarmer: the store's steady state keeps the LLC full
// of dirty appended log lines, so warm-started measurement windows need a
// pre-filled hierarchy.
func (k *KVS) WarmLLC() bool { return true }

// Get returns the fingerprint of the key's latest value (functional layer).
func (k *KVS) Get(key uint64) uint64 {
	if key >= k.cfg.Keys {
		panic("workload: key out of range")
	}
	return k.keyVer[key]
}

// Location returns the key's current log offset, for tests.
func (k *KVS) Location(key uint64) uint64 { return k.keyLoc[key] }

// OpCounts returns the number of GETs and SETs served.
func (k *KVS) OpCounts() (gets, sets uint64) { return k.gets, k.sets }

// FingerprintForTag returns the value fingerprint a SET with the given tag
// installs; tests use it to verify GET-after-SET semantics.
func FingerprintForTag(tag uint64) uint64 { return splitmix64(tag) }
