package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aorta/internal/comm"
	"aorta/internal/device"
	"aorta/internal/geo"
	"aorta/internal/netsim"
	"aorta/internal/profile"
	"aorta/internal/scanshare"
	"aorta/internal/sqlparse"
	"aorta/internal/vclock"
)

// badgeCatalogXML is a device type with string and numeric static
// attributes next to float and int sensory ones, so random WHERE clauses
// mix every kind of conjunct the pushdown distinguishes.
const badgeCatalogXML = `<catalog device_type="badge">
  <attribute name="id" type="string" sensory="false">device identifier</attribute>
  <attribute name="zone" type="string" sensory="false">assigned zone</attribute>
  <attribute name="floor" type="int" sensory="false">assigned floor</attribute>
  <attribute name="level" type="float" sensory="true">signal level</attribute>
  <attribute name="count" type="int" sensory="true">tags in range</attribute>
</catalog>`

const farmBadges = 12

var badgeZones = []string{"north", "south", "east"}

// badge is a device whose sensory readings are a fixed function of its
// index, so two scans of the farm read the same values.
type badge struct{ i int }

func (b badge) Type() string { return "badge" }
func (b badge) ID() string   { return badgeID(b.i) }
func (b badge) ReadAttr(name string) (any, error) {
	switch name {
	case "level":
		return float64(b.i*7%13) + 0.5, nil
	case "count":
		return b.i % 5, nil
	}
	return nil, device.ErrUnknownAttr
}
func (b badge) Exec(context.Context, string, json.RawMessage) (any, error) {
	return nil, fmt.Errorf("badge: no operations")
}
func (b badge) Status() json.RawMessage { return json.RawMessage(`{}`) }
func (b badge) Busy() bool              { return false }

func badgeID(i int) string { return fmt.Sprintf("badge-%02d", i) }

// newBadgeFarm starts an engine over farmBadges badges served on the
// simulated network.
func newBadgeFarm(t *testing.T) *Engine {
	t.Helper()
	// Real time: a device read that overruns its TIMEOUT drops the row,
	// and the comparison needs every scan to see every device.
	clk := vclock.Real{}
	network := netsim.NewNetwork(clk, 1)
	reg, err := profile.DefaultRegistry()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := profile.ParseCatalog([]byte(badgeCatalogXML))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterCatalog(cat); err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Clock: clk, Dialer: network, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < farmBadges; i++ {
		id := badgeID(i)
		lis, err := network.Listen(id)
		if err != nil {
			t.Fatal(err)
		}
		srv := device.Serve(lis, badge{i})
		t.Cleanup(func() { _ = srv.Close() })
		if err := e.RegisterDevice(comm.DeviceInfo{
			ID: id, Type: "badge", Addr: id,
			Static: map[string]any{"zone": badgeZones[i%3], "floor": i % 4},
		}, geo.Mount{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

// referenceSelect evaluates a SELECT the way it ran before the pushdown:
// every table scanned unfiltered, then evalScanned. With routed set, rows
// failing one of the table's extracted conjuncts are removed first — the
// rule the scan fabric applies to continuous queries.
func referenceSelect(t *testing.T, e *Engine, sql string, routed bool) ([]map[string]any, error) {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.compileQuery("reference", st.(*sqlparse.Select))
	if err != nil {
		return nil, err
	}
	views := make(map[string]scanshare.TableView, len(q.tables))
	for _, bt := range q.tables {
		b, _, err := e.layer.ScanBatch(context.Background(), bt.deviceType, bt.attrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Release()
		v := scanshare.TableView{Batch: b, Attrs: bt.attrs}
		if routed {
			v.Rows = []int32{}
		rows:
			for r := 0; r < b.Len(); r++ {
				for _, p := range bt.preds {
					if !p.Eval(b.ColByName(p.Attr).Value(r)) {
						continue rows
					}
				}
				v.Rows = append(v.Rows, int32(r))
			}
		}
		views[bt.alias] = v
	}
	return e.evalScanned(q, views)
}

// randAtom draws one comparison on alias: static or sensory, string or
// numeric, either operand order, indexable or not.
func randAtom(r *rand.Rand, alias string) string {
	ops := []string{"=", "<", "<=", ">", ">=", "!="}
	num := func(attr string, v float64) string {
		op := ops[r.Intn(len(ops))]
		if r.Intn(4) == 0 {
			return fmt.Sprintf("%v %s %s.%s", v, op, alias, attr)
		}
		return fmt.Sprintf("%s.%s %s %v", alias, attr, op, v)
	}
	switch r.Intn(6) {
	case 0:
		// One id past the farm: an unknown device.
		return fmt.Sprintf(`%s.id = "%s"`, alias, badgeID(r.Intn(farmBadges+1)))
	case 1:
		op := "="
		if r.Intn(4) == 0 {
			op = "!="
		}
		return fmt.Sprintf(`%s.zone %s "%s"`, alias, op, badgeZones[r.Intn(len(badgeZones))])
	case 2:
		return num("floor", float64(r.Intn(5)))
	case 3:
		return num("level", float64(r.Intn(14)))
	case 4:
		return num("count", float64(r.Intn(5)))
	default:
		return fmt.Sprintf(`NOT %s.id = "%s"`, alias, badgeID(r.Intn(farmBadges)))
	}
}

// randClause builds a nested AND/OR clause over the aliases, leaning on
// AND so most clauses have extractable conjuncts.
func randClause(r *rand.Rand, aliases []string, depth int) string {
	if depth == 0 || r.Intn(4) == 0 {
		if len(aliases) == 2 && r.Intn(6) == 0 {
			attr := []string{"floor", "level"}[r.Intn(2)]
			return fmt.Sprintf("%s.%s <= %s.%s", aliases[0], attr, aliases[1], attr)
		}
		return randAtom(r, aliases[r.Intn(len(aliases))])
	}
	op := "AND"
	if r.Intn(3) == 0 {
		op = "OR"
	}
	return fmt.Sprintf("(%s %s %s)", randClause(r, aliases, depth-1), op, randClause(r, aliases, depth-1))
}

func sameRows(a, b []map[string]any) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	return reflect.DeepEqual(a, b)
}

// TestPushdownEquivalence: for seeded random WHERE clauses, an ad-hoc
// SELECT (static conjuncts pushed into the scan) returns exactly the rows,
// in the same device-ID order, of the unfiltered scan with rows failing
// an extracted conjunct removed.
func TestPushdownEquivalence(t *testing.T) {
	e := newBadgeFarm(t)
	r := rand.New(rand.NewSource(12))
	shapes := []struct {
		head    string
		aliases []string
	}{
		{"SELECT b.id, b.zone, b.level FROM badge b", []string{"b"}},
		{"SELECT a.id, c.id, a.floor, c.count FROM badge a, badge c", []string{"a", "c"}},
	}
	reads := func() int64 { return e.CommMetrics().Reads }
	nonEmpty := 0
	var refReads, pushedReads int64
	for i := 0; i < 300; i++ {
		shape := shapes[i%len(shapes)]
		sql := shape.head + " WHERE " + randClause(r, shape.aliases, 3)
		before := reads()
		want, wantErr := referenceSelect(t, e, sql, true)
		mid := reads()
		res, err := e.Exec(context.Background(), sql)
		refReads += mid - before
		pushedReads += reads() - mid
		var got []map[string]any
		if err == nil {
			got = res.Rows
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s\nerror %v, reference error %v", sql, err, wantErr)
		}
		if !sameRows(got, want) {
			t.Fatalf("%s\ngot  %v\nwant %v", sql, got, want)
		}
		if len(got) > 0 {
			nonEmpty++
		}
	}
	// Guard the generator: most clauses must select something, or the
	// comparison proves little.
	if nonEmpty < 100 {
		t.Errorf("only %d of 300 clauses returned rows", nonEmpty)
	}
	if pushedReads >= refReads {
		t.Errorf("pushdown read %d values, unfiltered scans %d: nothing was pushed", pushedReads, refReads)
	}
}

// TestPushdownKindMismatch: a conjunct whose literal does not have its
// attribute's catalog kind is not pushed, so the statement fails with the
// same typed error as the unfiltered evaluation.
func TestPushdownKindMismatch(t *testing.T) {
	e := newBadgeFarm(t)
	for _, where := range []string{
		`b.id = 5`,
		`b.zone = 1`,
		`b.floor = "x"`,
		`b.level = "x"`,
		`b.id = "badge-03" AND b.floor = "x"`,
	} {
		sql := "SELECT b.id FROM badge b WHERE " + where
		_, wantErr := referenceSelect(t, e, sql, false)
		if wantErr == nil {
			t.Fatalf("%s: reference evaluation did not fail", sql)
		}
		_, err := e.Exec(context.Background(), sql)
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, want %v", sql, err, wantErr)
		}
	}
}
