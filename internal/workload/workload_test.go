package workload

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sweeper/internal/addr"
)

func TestZipfBoundsAndDeterminism(t *testing.T) {
	z := NewZipf(1000, 0.99, true)
	if z.N() != 1000 {
		t.Fatal("N")
	}
	for tag := uint64(0); tag < 5000; tag++ {
		r := z.Sample(tag)
		if r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		if r != z.Sample(tag) {
			t.Fatal("sampling not deterministic in tag")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100_000, 0.99, false) // unscrambled: rank 0 most popular
	hits := make(map[uint64]int)
	n := 200_000
	for i := 0; i < n; i++ {
		hits[z.Rank(unitFloat(splitmix64(uint64(i))))]++
	}
	// Under zipf(0.99) over 100k items, rank 0 alone draws ~7-9% of
	// requests; uniform would give 0.001%.
	if frac := float64(hits[0]) / float64(n); frac < 0.02 {
		t.Fatalf("rank-0 popularity %.4f, want heavy skew", frac)
	}
	// Top-100 ranks draw a large fraction of all traffic.
	var top int
	for r := uint64(0); r < 100; r++ {
		top += hits[r]
	}
	if frac := float64(top) / float64(n); frac < 0.3 {
		t.Fatalf("top-100 mass %.3f, want > 0.3", frac)
	}
}

func TestZipfScrambleSpreadsHotKeys(t *testing.T) {
	zs := NewZipf(1<<20, 0.99, true)
	// The two hottest scrambled keys must not be adjacent small ranks.
	a := zs.Rank(0.0001)
	b := zs.Rank(0.0002)
	if a < 100 && b < 100 {
		t.Fatalf("scramble left hot keys clustered: %d %d", a, b)
	}
}

func TestZipfPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":   func() { NewZipf(0, 0.5, false) },
		"theta 0": func() { NewZipf(10, 0, false) },
		"theta 1": func() { NewZipf(10, 1, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestTableIZeta recomputes the normalizer of the Table I domain and
// requires the committed constant to match it bit for bit: a different last
// bit would move the zipf ranks behind every KVS golden.
func TestTableIZeta(t *testing.T) {
	sum := zetaSum(2_400_000, 0.99)
	if got, want := math.Float64bits(sum), math.Float64bits(tableIZeta); got != want {
		t.Fatalf("zeta(2.4M, 0.99) sums to %#x, committed constant is %#x", got, want)
	}
	if got := math.Float64bits(zeta(2_400_000, 0.99)); got != 0x403066c46f8111de {
		t.Fatalf("zeta returns %#x for the Table I domain", got)
	}
	if zeta(12345, 0.99) != zetaSum(12345, 0.99) {
		t.Fatal("zeta of another domain is not its sum")
	}
}

// Property: ranks stay in range for arbitrary uniform inputs.
func TestZipfRangeProperty(t *testing.T) {
	z := NewZipf(12345, 0.99, true)
	f := func(u float64) bool {
		u = math.Abs(u)
		u -= math.Floor(u) // [0,1)
		return z.Rank(u) < 12345
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func testSpace() *addr.Space { return addr.NewSpace(2, 64*1024, 64*1024) }

// tableIKVS returns the Appendix store of 1KB items, laid out.
func tableIKVS(t *testing.T) *KVS {
	t.Helper()
	k := NewKVS(1024)
	k.Layout(testSpace())
	return k
}

// TestKVSDefaults pins the Appendix store a 1KB-item KVS builds: 2.4M keys,
// 1M one-line buckets and a 256MB circular log of 1KB items.
func TestKVSDefaults(t *testing.T) {
	k := tableIKVS(t)
	if len(k.keySlot) != 2_400_000 || k.zipf.N() != 2_400_000 {
		t.Fatalf("%d keys, zipf over %d, want 2.4M", len(k.keySlot), k.zipf.N())
	}
	if got := k.LogBase() - k.BucketsBase(); got != 1<<20*64 {
		t.Fatalf("bucket array %dB, want 1M lines", got)
	}
	if k.logSlots != 256<<20/1024 || k.itemLines != 16 {
		t.Fatalf("log of %d slots of %d lines, want 256MB of 1KB items", k.logSlots, k.itemLines)
	}
}

// TestKVSValidation checks that only whole-line items are accepted, by the
// store and by the kvs registration, which takes the item size from the
// packet size.
func TestKVSValidation(t *testing.T) {
	for _, item := range []uint64{0, 100, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%dB items: expected panic", item)
				}
			}()
			NewKVS(item)
		}()
		if ValidateParams(NameKVS, Params{PacketBytes: item}) == nil {
			t.Errorf("%dB packets: kvs validation accepted them", item)
		}
	}
	for _, item := range []uint64{64, 512, 64 << 10} {
		if err := ValidateParams(NameKVS, Params{PacketBytes: item}); err != nil {
			t.Errorf("%dB packets: %v", item, err)
		}
	}
}

// TestKVSStateFootprint pins the store's per-key state at one 4-byte log
// slot index: every pooled Reset re-lays it out, so its size is set-up time.
func TestKVSStateFootprint(t *testing.T) {
	k := NewKVS(1024)
	v := reflect.ValueOf(k).Elem()
	bytes := 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			bytes += f.Len() * int(f.Type().Elem().Size())
		}
	}
	keys := kvsKeys
	if limit := 4 * keys; bytes > limit {
		t.Fatalf("KVS per-key state %d bytes, above %d (4 per key)", bytes, limit)
	}
	t.Logf("%d keys: %.1f MB of per-key state", keys, float64(bytes)/1e6)
}

func TestKVSGetPlanShape(t *testing.T) {
	k := tableIKVS(t)
	// Find a GET tag.
	var tag uint64
	for ; ; tag++ {
		if isGet, _ := k.DecodeOp(tag); isGet {
			break
		}
	}
	var plan Plan
	k.PlanRequest(tag, 1024, &plan)
	if plan.ReadFullPacket {
		t.Fatal("GET should read only the request header")
	}
	if plan.RespBytes != 1024 {
		t.Fatalf("GET response = %d, want item size", plan.RespBytes)
	}
	// Bucket read + 16 item reads, no writes.
	if len(plan.Ops) != 17 {
		t.Fatalf("GET ops = %d, want 17", len(plan.Ops))
	}
	for i, op := range plan.Ops {
		if op.Write {
			t.Fatalf("GET op %d is a write", i)
		}
	}
	if plan.ComputeCycles != 300 {
		t.Fatal("compute")
	}
}

func TestKVSSetPlanShape(t *testing.T) {
	k := tableIKVS(t)
	var tag uint64
	for ; ; tag++ {
		if isGet, _ := k.DecodeOp(tag); !isGet {
			break
		}
	}
	var plan Plan
	k.PlanRequest(tag, 1024, &plan)
	if !plan.ReadFullPacket {
		t.Fatal("SET must consume the full payload")
	}
	if plan.RespBytes != 64 {
		t.Fatalf("SET ack = %d", plan.RespBytes)
	}
	// Bucket read + bucket write + 16 full-line log writes.
	var reads, writes, fulls int
	for _, op := range plan.Ops {
		switch {
		case op.Write && op.FullLine:
			fulls++
		case op.Write:
			writes++
		default:
			reads++
		}
	}
	if reads != 1 || writes != 1 || fulls != 16 {
		t.Fatalf("SET ops: %d reads, %d writes, %d full-line", reads, writes, fulls)
	}
}

func TestKVSMixApproximatesGetPercent(t *testing.T) {
	k := tableIKVS(t)
	const n = 20_000
	gets := 0
	for tag := uint64(0); tag < n; tag++ {
		if isGet, _ := k.DecodeOp(splitmix64(tag)); isGet {
			gets++
		}
	}
	frac := float64(gets) / n
	if frac < 0.03 || frac > 0.08 {
		t.Fatalf("GET fraction %.3f, want ~0.05", frac)
	}
}

// TestKVSGetAfterSetSemantics checks at plan level that a GET reads what
// the latest SET of its key wrote: its item reads are exactly the SET's
// full-line log appends, and were not before the SET.
func TestKVSGetAfterSetSemantics(t *testing.T) {
	k := tableIKVS(t)
	getTags, setTags := map[uint64]uint64{}, map[uint64]uint64{}
	var getTag, setTag uint64
	for tag := uint64(0); ; tag++ {
		isGet, key := k.DecodeOp(tag)
		if isGet {
			getTags[key] = tag
		} else {
			setTags[key] = tag
		}
		g, okG := getTags[key]
		s, okS := setTags[key]
		if okG && okS {
			getTag, setTag = g, s
			break
		}
	}
	itemReads := func() []uint64 {
		var plan Plan
		k.PlanRequest(getTag, 64, &plan)
		var addrs []uint64
		for _, op := range plan.Ops[1:] { // Ops[0] probes the bucket
			addrs = append(addrs, op.Addr)
		}
		return addrs
	}
	before := itemReads()
	var set Plan
	k.PlanRequest(setTag, 1024, &set)
	var appends []uint64
	for _, op := range set.Ops {
		if op.Write && op.FullLine {
			appends = append(appends, op.Addr)
		}
	}
	if len(appends) != 16 {
		t.Fatalf("SET appended %d lines, want 16", len(appends))
	}
	if slices.Equal(before, appends) {
		t.Fatal("GET before the SET already read the SET's log slot")
	}
	if after := itemReads(); !slices.Equal(after, appends) {
		t.Fatalf("GET after SET read %#x, want the SET's appends %#x", after, appends)
	}
}

func TestKVSSetRelocatesToLogHead(t *testing.T) {
	k := tableIKVS(t)
	var setTag uint64
	for ; ; setTag++ {
		if isGet, _ := k.DecodeOp(setTag); !isGet {
			break
		}
	}
	_, key := k.DecodeOp(setTag)
	before := k.Location(key)
	var plan Plan
	k.PlanRequest(setTag, 1024, &plan)
	after := k.Location(key)
	if before == after {
		t.Fatal("SET must move the key to the log head")
	}
	// The plan's log writes target the new location.
	found := false
	for _, op := range plan.Ops {
		if op.Write && op.FullLine && op.Addr == k.LogBase()+after {
			found = true
		}
	}
	if !found {
		t.Fatal("log writes do not cover the new location")
	}
}

func TestKVSPlanAddressesWithinRegions(t *testing.T) {
	k := tableIKVS(t)
	var plan Plan
	for tag := uint64(0); tag < 2000; tag++ {
		k.PlanRequest(splitmix64(tag^0xabc), 1024, &plan)
		for _, op := range plan.Ops {
			inBuckets := op.Addr >= k.BucketsBase() && op.Addr < k.LogBase()
			inLog := op.Addr >= k.LogBase() && op.Addr < k.LogBase()+kvsLogBytes
			if !inBuckets && !inLog {
				t.Fatalf("tag %d: op at %#x outside KVS regions", tag, op.Addr)
			}
		}
	}
}

func TestKVSRequestBytes(t *testing.T) {
	k := tableIKVS(t)
	var getTag, setTag uint64
	for tag := uint64(0); ; tag++ {
		isGet, _ := k.DecodeOp(tag)
		if isGet && getTag == 0 {
			getTag = tag
		}
		if !isGet && setTag == 0 {
			setTag = tag + 1 // avoid zero sentinel
		}
		if getTag != 0 && setTag != 0 {
			break
		}
	}
	if k.RequestBytes(getTag) != 64 {
		t.Fatal("GET request should be key-sized")
	}
	if k.RequestBytes(setTag-1) != 1024 {
		t.Fatal("SET request should carry the item")
	}
}

// TestKVSLogWraps runs SETs until the log head wraps (the 256MB log holds
// 262,144 1KB items) and checks that no append lands beyond the log.
func TestKVSLogWraps(t *testing.T) {
	k := tableIKVS(t)
	end := k.LogBase() + kvsLogBytes
	var plan Plan
	wrapped := false
	for tag := uint64(0); tag < 2*kvsLogBytes/1024 && !wrapped; tag++ {
		head := k.logHead
		k.PlanRequest(tag, 1024, &plan)
		for _, op := range plan.Ops {
			if op.Addr >= end {
				t.Fatalf("tag %d: log write at %#x beyond the circular log", tag, op.Addr)
			}
		}
		wrapped = k.logHead < head
	}
	if !wrapped {
		t.Fatal("the log head never wrapped")
	}
	if k.logHead != 0 {
		t.Fatalf("log head wrapped to slot %d, want 0", k.logHead)
	}
}

func TestL3FwdPlanShape(t *testing.T) {
	f := NewL3Fwd(l3fwdRules)
	f.Layout(testSpace())
	var plan Plan
	f.PlanRequest(12345, 1024, &plan)
	if !plan.ReadFullPacket {
		t.Fatal("forwarder copies the payload")
	}
	if plan.RespBytes != 1024 {
		t.Fatal("forwarder transmits the whole packet")
	}
	if len(plan.Ops) != 2 {
		t.Fatalf("lookup ops = %d, want the lookup depth", len(plan.Ops))
	}
	for _, op := range plan.Ops {
		if op.Write {
			t.Fatal("route lookups are reads")
		}
	}
}

func TestL3FwdDeterministicRoutingWithJitter(t *testing.T) {
	f := NewL3Fwd(l3fwdRules)
	f.Layout(testSpace())
	if f.NextHop(7) != f.NextHop(7) {
		t.Fatal("routing not deterministic")
	}
	var p1, p2 Plan
	f.PlanRequest(7, 1024, &p1)
	f.PlanRequest(7, 1024, &p2)
	if p1.ComputeCycles != p2.ComputeCycles {
		t.Fatal("jitter must be deterministic per tag")
	}
	f.PlanRequest(8, 1024, &p2)
	if p2.ComputeCycles < l3fwdComputeCycles || p2.ComputeCycles >= l3fwdComputeCycles+64 {
		t.Fatalf("jitter out of range: %d", p2.ComputeCycles)
	}
}

// TestL3FwdTableVariants checks the table each forwarder registration
// builds: 16k rules for §IV-B, 256 for the L1-resident §VI-E table.
func TestL3FwdTableVariants(t *testing.T) {
	for name, want := range map[string]string{NameL3Fwd: "l3fwd-16384r", NameL3FwdL1: "l3fwd-256r"} {
		d, err := NewDriver(name, Params{PacketBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if got := d.(*L3Fwd).Name(); got != want {
			t.Errorf("%s builds %s, want %s", name, got, want)
		}
	}
}

func TestL3FwdLookupsWithinTable(t *testing.T) {
	space := testSpace()
	f := NewL3Fwd(l3fwdRules)
	f.Layout(space)
	var plan Plan
	for tag := uint64(0); tag < 2000; tag++ {
		f.PlanRequest(tag, 1024, &plan)
		for _, op := range plan.Ops {
			// Route table occupies Rules lines starting at its base.
			rel := op.Addr % (16384 * 64)
			_ = rel
			if op.Addr < space.End()-16384*64 || op.Addr >= space.End() {
				t.Fatalf("lookup at %#x outside the route table", op.Addr)
			}
		}
	}
}

func TestL3FwdValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewL3Fwd(0)
}

func TestXMemStream(t *testing.T) {
	space := testSpace()
	x := NewXMem()
	x.Layout(space, 1)
	base := space.End() - xmemArrayBytes
	seen := map[uint64]bool{}
	for i := 0; i < 10_000; i++ {
		a := x.Next()
		if a < base || a >= base+xmemArrayBytes {
			t.Fatalf("access %#x outside private array", a)
		}
		if a%64 != 0 {
			t.Fatal("unaligned access")
		}
		seen[a] = true
	}
	// Random coverage: 10k draws over 32k lines should touch many.
	if len(seen) < 5000 {
		t.Fatalf("stream touched only %d distinct lines", len(seen))
	}
}

func TestXMemDeterministicPerSeed(t *testing.T) {
	s1, s2 := testSpace(), testSpace()
	a, b := NewXMem(), NewXMem()
	a.Layout(s1, 42)
	b.Layout(s2, 42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("streams with equal seeds diverge")
		}
	}
	c := NewXMem()
	c.Layout(testSpace(), 43)
	diff := false
	for i := 0; i < 100; i++ {
		if a.Next() != c.Next() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestWorkloadNames(t *testing.T) {
	if NewKVS(1024).Name() != "kvs-1024B" {
		t.Fatal("kvs name")
	}
	if NewL3Fwd(l3fwdRules).Name() != "l3fwd-16384r" {
		t.Fatal("l3fwd name")
	}
	if NewXMem().Name() != "xmem-2MB" {
		t.Fatal("xmem name")
	}
}

// TestRegisterRejectsRespSlotBytes: the machine sizes TX slots by the packet
// size, so a registration that sets its own size panics instead of being
// ignored.
func TestRegisterRejectsRespSlotBytes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register accepted a RespSlotBytes hook")
		}
	}()
	Register(Registration{
		Name:          "resp-slot-test",
		New:           func(Params) (Driver, error) { return nil, nil },
		RespSlotBytes: func(p Params) uint64 { return 2 * p.PacketBytes },
	})
}
