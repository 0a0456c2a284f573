package comm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// ScanReport describes the outcome of one virtual-table scan.
type ScanReport struct {
	// Scanned is the number of devices that produced a tuple.
	Scanned int
	// Skipped is the number of registered devices that were unreachable
	// or failed mid-read; their tuples are simply absent (network data
	// independence).
	Skipped int
	// InBackoff is the subset of Skipped that was not even dialed because
	// the device is inside its dial-failure backoff window.
	InBackoff int
}

// scanPlan is the per-(type, attrs) scan layout, computed once and cached:
// the projected schema plus the static/sensory split as column indexes.
// The device type's schema is published once from its catalog; every scan
// of the same projection reuses the plan.
type scanPlan struct {
	schema  *Schema
	static  []int // column indexes filled from the registry
	sensory []int // column indexes acquired from the live device
}

// scanPlanFor returns the cached scan plan for one device type and
// attribute projection, building and caching it on first use.
func (l *Layer) scanPlanFor(deviceType string, attrs []string) (*scanPlan, error) {
	key := deviceType + "\x00" + strings.Join(attrs, "\x00")
	l.planMu.RLock()
	p, ok := l.plans[key]
	l.planMu.RUnlock()
	if ok {
		return p, nil
	}

	cat, ok := l.reg.Catalog(deviceType)
	if !ok {
		return nil, fmt.Errorf("comm: no catalog for device type %q", deviceType)
	}
	if attrs == nil {
		for _, a := range cat.Attributes {
			attrs = append(attrs, a.Name)
		}
	}
	// Every scan tuple carries the device id, whether or not it was asked
	// for (it keys routing and action binding downstream).
	hasID := false
	for _, name := range attrs {
		if name == "id" {
			hasID = true
			break
		}
	}
	if !hasID {
		attrs = append([]string{"id"}, attrs...)
	}
	p = &scanPlan{}
	names := make([]string, len(attrs))
	kinds := make([]Kind, len(attrs))
	for i, name := range attrs {
		def, ok := cat.Attr(name)
		if !ok {
			return nil, fmt.Errorf("comm: device type %q has no attribute %q", deviceType, name)
		}
		names[i] = name
		kinds[i] = KindOf(def.Type)
		if def.Sensory {
			p.sensory = append(p.sensory, i)
		} else {
			p.static = append(p.static, i)
		}
	}
	p.schema = NewSchema(names, kinds)

	l.planMu.Lock()
	l.plans[key] = p
	l.planMu.Unlock()
	return p, nil
}

// DeviceFilter narrows a scan to the registered devices whose registry
// (non-sensory) values can satisfy the statement being evaluated: the
// acquisition pushdown. A device the filter rejects is neither dialed nor
// read and contributes no row. A nil filter admits every device.
type DeviceFilter struct {
	// ID, when non-empty, admits only the device with this ID, resolved by
	// direct registry lookup rather than a type-wide listing.
	ID string
	// Keep, when non-nil, admits only the registry entries it accepts. It
	// must not mutate the entry.
	Keep func(*DeviceInfo) bool
}

// admits reports whether the filter passes one registry entry of the
// scanned type.
func (f *DeviceFilter) admits(d *DeviceInfo) bool {
	return f == nil || (f.ID == "" || f.ID == d.ID) && (f.Keep == nil || f.Keep(d))
}

// ScanBatch materializes the virtual relational table for a device type as
// one columnar batch: one row per currently reachable device of that type
// (paper §3.2) that the filter admits, one typed column per attribute.
//
// attrs selects the columns; nil means every attribute in the device
// type's catalog, and "id" is always included. Non-sensory attributes come
// from the registry; sensory attributes are acquired from the device over
// one pooled session. Devices are scanned concurrently; rows appear in
// device-ID order.
//
// The returned batch is reference-counted with one reference held by the
// caller, who must Release it when done.
func (l *Layer) ScanBatch(ctx context.Context, deviceType string, attrs []string, filter *DeviceFilter) (*Batch, *ScanReport, error) {
	plan, err := l.scanPlanFor(deviceType, attrs)
	if err != nil {
		return nil, nil, err
	}

	devices := l.devicesFor(deviceType, filter)
	nCols := plan.schema.Len()

	// Each device goroutine fills its own slice of one flat scratch
	// array; columnar append happens sequentially afterwards so typed
	// columns can demote without racing.
	scratch := make([]any, len(devices)*nCols)
	ok := make([]bool, len(devices))
	backoff := make([]bool, len(devices))
	var wg sync.WaitGroup
	for i, dev := range devices {
		wg.Add(1)
		go func(i int, dev *DeviceInfo) {
			defer wg.Done()
			vals := scratch[i*nCols : (i+1)*nCols]
			ok[i], backoff[i] = l.scanDeviceCols(ctx, dev, plan, vals)
		}(i, dev)
	}
	wg.Wait()

	report := &ScanReport{}
	b := NewBatch(plan.schema)
	for i := range devices {
		if !ok[i] {
			report.Skipped++
			if backoff[i] {
				report.InBackoff++
			}
			continue
		}
		report.Scanned++
		b.Append(scratch[i*nCols : (i+1)*nCols])
	}
	return b, report, nil
}

// Scan is the row-map compatibility wrapper over ScanBatch: it
// materializes the batch as []Tuple and releases it. New code should use
// ScanBatch and keep the columnar form.
func (l *Layer) Scan(ctx context.Context, deviceType string, attrs []string) ([]Tuple, *ScanReport, error) {
	b, report, err := l.ScanBatch(ctx, deviceType, attrs, nil)
	if err != nil {
		return nil, nil, err
	}
	var out []Tuple
	if b.Len() > 0 {
		out = b.Tuples()
	}
	b.Release()
	return out, report, nil
}

// scanDeviceCols fills one device's row into vals (schema column order)
// over a pooled session. ok=false means the device was unreachable or a
// sensory read failed and the row must be dropped; inBackoff reports
// whether it was skipped without dialing because of its dial-failure
// backoff window.
//
// Static values are taken from the registry entry by reference — registry
// entries are immutable after Register, and batch consumers treat tuple
// values as read-only — so a scan no longer deep-copies every device's
// Static map per epoch.
func (l *Layer) scanDeviceCols(ctx context.Context, dev *DeviceInfo, plan *scanPlan, vals []any) (ok, inBackoff bool) {
	for _, i := range plan.static {
		vals[i] = dev.Static[plan.schema.Name(i)]
	}
	if len(plan.sensory) == 0 {
		return true, false
	}
	err := l.WithSession(ctx, dev.ID, func(s *Session) error {
		for _, i := range plan.sensory {
			v, err := s.Read(ctx, plan.schema.Name(i))
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	})
	if err != nil {
		return false, errors.Is(err, ErrBackoff)
	}
	return true, false
}
