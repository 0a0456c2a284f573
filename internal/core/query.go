package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"aorta/internal/comm"
	"aorta/internal/match"
	"aorta/internal/scanshare"
	"aorta/internal/sqlparse"
)

// Query is one registered action-embedded continuous query.
type Query struct {
	ID    int
	Name  string
	Epoch time.Duration

	sel         *sqlparse.Select
	tables      []boundTable
	actionItems []*actionItem
	aggItems    []*aggItem
	groupBy     []*sqlparse.ColumnRef
	projItems   []sqlparse.Expr
	// where is the WHERE clause compiled into flat closures over column
	// accessors; nil when the clause is absent or has a shape the compiler
	// does not handle (the interpreted evalExpr then filters instead).
	where *compiledWhere

	mu      sync.Mutex
	running bool
	// stopped marks a STOP AQ'd query: it stays in the catalog (and in
	// journal snapshots) but is not launched until START AQ clears it —
	// including across an engine restart.
	stopped   bool
	cancel    context.CancelFunc
	evals     int64
	evalErrs  int64
	lastError error
	// panics counts evaluation panics contained by the engine's recover()
	// boundary; at Config.QuarantineAfter the query is quarantined:
	// auto-stopped with quarReason recorded, refused by START AQ.
	panics      int64
	quarantined bool
	quarReason  string
}

// boundTable is one FROM entry bound to a device type with the attribute
// set its scans need.
type boundTable struct {
	alias      string
	deviceType string
	attrs      []string
	// preds are the WHERE clause's indexable conjuncts anchored on this
	// table. The scan fabric's predicate index routes only tuples
	// satisfying them to the query; the full WHERE still runs on whatever
	// arrives, so routing is purely an early filter.
	preds []match.Predicate
}

// actionItem is one action call in the select list.
type actionItem struct {
	def *ActionDef
	// call's arguments get re-evaluated per selected candidate.
	call *sqlparse.Call
	// deviceAlias is the FROM alias whose table matches the action's
	// device type — its tuples are the candidate devices.
	deviceAlias string
}

// Info summarizes a query for SHOW QUERIES.
type Info struct {
	ID      int
	Name    string
	Running bool
	Epoch   time.Duration
	SQL     string
	Evals   int64
	Errors  int64
	// Panics counts evaluation panics contained for this query;
	// Quarantined marks a query auto-stopped at the panic threshold, with
	// Reason recording why.
	Panics      int64
	Quarantined bool
	Reason      string
}

// Info returns a snapshot of the query's state.
func (q *Query) Info() Info {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Info{
		ID: q.ID, Name: q.Name, Running: q.running, Epoch: q.Epoch,
		SQL: q.sel.String(), Evals: q.evals, Errors: q.evalErrs,
		Panics: q.panics, Quarantined: q.quarantined, Reason: q.quarReason,
	}
}

// compileQuery binds a parsed SELECT against the engine's catalogs and
// action registry.
func (e *Engine) compileQuery(name string, sel *sqlparse.Select) (*Query, error) {
	q := &Query{Name: name, sel: sel, Epoch: sel.Every}
	if q.Epoch <= 0 {
		q.Epoch = e.cfg.DefaultEpoch
	}

	aliases := make(map[string]string, len(sel.From)) // alias → device type
	for _, ref := range sel.From {
		if _, ok := e.reg.Catalog(ref.Table); !ok {
			return nil, fmt.Errorf("core: unknown device table %q", ref.Table)
		}
		alias := ref.Name()
		if _, dup := aliases[alias]; dup {
			return nil, fmt.Errorf("core: duplicate table alias %q", alias)
		}
		aliases[alias] = ref.Table
	}

	// Column requirements per alias, seeded with id.
	needs := make(map[string]map[string]bool, len(aliases))
	for alias := range aliases {
		needs[alias] = map[string]bool{"id": true}
	}
	var collectErr error
	collect := func(ex sqlparse.Expr) {
		walkExprs(ex, func(node sqlparse.Expr) {
			ref, ok := node.(*sqlparse.ColumnRef)
			if !ok || collectErr != nil {
				return
			}
			if ref.Qualifier != "" {
				if _, ok := aliases[ref.Qualifier]; !ok {
					collectErr = fmt.Errorf("core: unknown alias %q in %s", ref.Qualifier, ref)
					return
				}
				if err := e.checkAttr(aliases[ref.Qualifier], ref.Column); err != nil {
					collectErr = err
					return
				}
				needs[ref.Qualifier][ref.Column] = true
				return
			}
			// Unqualified: resolve to the unique table having the column.
			var owners []string
			for alias, table := range aliases {
				if e.checkAttr(table, ref.Column) == nil {
					owners = append(owners, alias)
				}
			}
			switch len(owners) {
			case 0:
				collectErr = fmt.Errorf("core: no table has column %q", ref.Column)
			case 1:
				needs[owners[0]][ref.Column] = true
			default:
				collectErr = fmt.Errorf("core: ambiguous column %q", ref.Column)
			}
		})
	}

	if sel.Where != nil {
		collect(sel.Where)
		// WHERE function calls must be registered boolean functions.
		walkExprs(sel.Where, func(node sqlparse.Expr) {
			if call, ok := node.(*sqlparse.Call); ok && collectErr == nil {
				if _, ok := e.boolFuncs[call.Func]; !ok {
					collectErr = fmt.Errorf("core: unknown boolean function %q in WHERE", call.Func)
				}
			}
		})
	}

	for _, item := range sel.Items {
		switch it := item.(type) {
		case *sqlparse.Star:
			q.projItems = append(q.projItems, it)
			for alias, table := range aliases {
				cat, _ := e.reg.Catalog(table)
				for _, a := range cat.Attributes {
					needs[alias][a.Name] = true
				}
			}
		case *sqlparse.Call:
			if isAggregateCall(it) {
				agg, err := compileAggregate(it)
				if err != nil {
					return nil, err
				}
				if agg.arg != nil {
					collect(agg.arg)
				}
				q.aggItems = append(q.aggItems, agg)
				continue
			}
			def, isAction := e.actions[it.Func]
			if !isAction {
				if _, isBool := e.boolFuncs[it.Func]; isBool {
					q.projItems = append(q.projItems, it)
					collect(it)
					continue
				}
				return nil, fmt.Errorf("core: %q is neither a registered action nor a function", it.Func)
			}
			// Bind the action to the alias whose table matches its device
			// type.
			var devAlias string
			for alias, table := range aliases {
				if table == def.Profile.DeviceType {
					if devAlias != "" {
						return nil, fmt.Errorf("core: action %q is ambiguous: two %s tables in FROM", it.Func, table)
					}
					devAlias = alias
				}
			}
			if devAlias == "" {
				return nil, fmt.Errorf("core: action %q needs a %q table in FROM", it.Func, def.Profile.DeviceType)
			}
			q.actionItems = append(q.actionItems, &actionItem{def: def, call: it, deviceAlias: devAlias})
			collect(it)
		default:
			q.projItems = append(q.projItems, item)
			collect(item)
		}
	}
	if len(sel.GroupBy) > 0 {
		if len(q.aggItems) == 0 {
			return nil, fmt.Errorf("core: GROUP BY requires aggregate select items")
		}
		for _, g := range sel.GroupBy {
			collect(g)
			q.groupBy = append(q.groupBy, g)
		}
	}
	if collectErr != nil {
		return nil, collectErr
	}
	if len(q.aggItems) > 0 {
		if len(q.actionItems) > 0 {
			return nil, fmt.Errorf("core: aggregates cannot be mixed with actions")
		}
		// Plain columns are only allowed when they are grouping columns.
		for _, item := range q.projItems {
			ref, ok := item.(*sqlparse.ColumnRef)
			if !ok || !inGroupBy(q.groupBy, ref) {
				return nil, fmt.Errorf("core: select item %s must be an aggregate or a GROUP BY column", item)
			}
		}
	}

	for _, ref := range sel.From {
		alias := ref.Name()
		attrs := make([]string, 0, len(needs[alias]))
		for a := range needs[alias] {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		bt := boundTable{alias: alias, deviceType: ref.Table, attrs: attrs}
		if sel.Where != nil {
			bt.preds = match.Extract(sel.Where, ownsRef(aliases, alias, e))
		}
		q.tables = append(q.tables, bt)
	}
	if sel.Where != nil {
		// Best effort: a clause the compiler cannot flatten leaves q.where
		// nil and the interpreted reference evaluator filters instead.
		q.where, _ = compileWhere(q, e.boolFuncs)
	}
	return q, nil
}

// ownsRef reports whether a column reference resolves to the given alias,
// using the same resolution rule as compileQuery's collect: a qualified
// reference belongs to its qualifier; an unqualified one to the unique
// table having the column.
func ownsRef(aliases map[string]string, alias string, e *Engine) func(ref *sqlparse.ColumnRef) bool {
	return func(ref *sqlparse.ColumnRef) bool {
		if ref.Qualifier != "" {
			return ref.Qualifier == alias
		}
		var owner string
		owners := 0
		for a, table := range aliases {
			if e.checkAttr(table, ref.Column) == nil {
				owner = a
				owners++
			}
		}
		return owners == 1 && owner == alias
	}
}

// checkAttr verifies the attribute exists in the device type's catalog.
func (e *Engine) checkAttr(deviceType, attr string) error {
	cat, ok := e.reg.Catalog(deviceType)
	if !ok {
		return fmt.Errorf("core: unknown device table %q", deviceType)
	}
	if _, ok := cat.Attr(attr); !ok {
		return fmt.Errorf("core: table %q has no attribute %q", deviceType, attr)
	}
	return nil
}

// inGroupBy reports whether ref names one of the grouping columns.
func inGroupBy(groupBy []*sqlparse.ColumnRef, ref *sqlparse.ColumnRef) bool {
	for _, g := range groupBy {
		if g.Qualifier == ref.Qualifier && g.Column == ref.Column {
			return true
		}
	}
	return false
}

// walkExprs visits every node of an expression tree.
func walkExprs(e sqlparse.Expr, fn func(sqlparse.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch ex := e.(type) {
	case *sqlparse.Call:
		for _, a := range ex.Args {
			walkExprs(a, fn)
		}
	case *sqlparse.Compare:
		walkExprs(ex.Left, fn)
		walkExprs(ex.Right, fn)
	case *sqlparse.Logic:
		walkExprs(ex.Left, fn)
		walkExprs(ex.Right, fn)
	case *sqlparse.Not:
		walkExprs(ex.Inner, fn)
	}
}

// pushdown selects the conjuncts of bt.preds an ad-hoc scan evaluates
// against the registry before acquiring anything, and the device filter
// that applies them (nil when there are none). A conjunct is pushed when
// its attribute is non-sensory and its literal has the attribute's
// catalog kind; any other conjunct (s.id = 5) stays in WHERE, which keeps
// its typed comparison error. An id equality becomes a direct registry
// lookup. A device a pushed conjunct rejects never reaches the rest of
// WHERE — the rule the fabric's predicate index already applies to
// continuous queries.
func (e *Engine) pushdown(bt boundTable) ([]match.Predicate, *comm.DeviceFilter) {
	cat, ok := e.reg.Catalog(bt.deviceType)
	if !ok || len(bt.preds) == 0 {
		return nil, nil
	}
	var pushed []match.Predicate
	for _, p := range bt.preds {
		// Extracted literals are strings or float64 numbers.
		kind := comm.KindFloat
		if _, ok := p.Value.(string); ok {
			kind = comm.KindString
		}
		def, ok := cat.Attr(p.Attr)
		if ok && !def.Sensory && comm.KindOf(def.Type) == kind {
			pushed = append(pushed, p)
		}
	}
	if len(pushed) == 0 {
		return nil, nil
	}
	filter := &comm.DeviceFilter{Keep: func(d *comm.DeviceInfo) bool {
		for _, p := range pushed {
			if !p.Eval(d.Static[p.Attr]) {
				return false
			}
		}
		return true
	}}
	for _, p := range pushed {
		if p.Attr == "id" && p.Op == match.OpEQ {
			filter.ID = p.Value.(string)
			break
		}
	}
	return pushed, filter
}

// joinPreds renders conjuncts for EXPLAIN, string literals quoted.
func joinPreds(preds []match.Predicate) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.Attr + " " + p.Op + " " + (&sqlparse.Literal{Value: p.Value}).String()
	}
	return strings.Join(parts, " AND ")
}

// evalOnce performs one evaluation epoch: scan, join, filter, and either
// emit action requests or produce projected rows. Ad-hoc statements use
// this direct path, acquiring only the devices their static conjuncts
// admit; continuous queries receive their scans from the shared fabric
// and enter at evalScanned.
func (e *Engine) evalOnce(ctx context.Context, q *Query) ([]map[string]any, error) {
	// Scan every table into a columnar batch. Unreachable devices simply
	// produce no row.
	views := make(map[string]scanshare.TableView, len(q.tables))
	defer func() {
		for _, v := range views {
			v.Batch.Release()
		}
	}()
	for _, bt := range q.tables {
		_, filter := e.pushdown(bt)
		b, _, err := e.layer.ScanBatch(ctx, bt.deviceType, bt.attrs, filter)
		if err != nil {
			return nil, err
		}
		views[bt.alias] = scanshare.TableView{Batch: b, Attrs: bt.attrs}
	}
	return e.safeEvalScanned(q, views)
}

// safeEvalScanned is evalScanned behind the engine's panic-containment
// boundary: a panic anywhere in join/filter/aggregate evaluation
// (compiled predicates, user boolean functions, argument binding) becomes
// a typed *PanicError for this query instead of unwinding into the
// daemon's runtime.
func (e *Engine) safeEvalScanned(q *Query, tables map[string]scanshare.TableView) (rows []map[string]any, err error) {
	defer func() { e.containPanic(recover(), &err, "query evaluation", q.Name) }()
	return e.evalScanned(q, tables)
}

// evalScanned runs the post-scan half of an epoch over the epoch's table
// views: join, filter, and either emit action requests or produce
// projected rows. Filtering runs the compiled WHERE positionally over the
// shared columnar batches; row-map tuples are materialized only for the
// combinations that pass (memoized per table row, since a passing row of
// one table can appear in many join combinations).
func (e *Engine) evalScanned(q *Query, tables map[string]scanshare.TableView) ([]map[string]any, error) {
	n := len(q.tables)
	views := make([]scanshare.TableView, n)
	batches := make([]*comm.Batch, n)
	for i, bt := range q.tables {
		views[i] = tables[bt.alias]
		batches[i] = views[i].Batch
	}

	cw := q.where
	var fr *frame
	if cw != nil {
		fr = cw.newFrame(n)
		cw.bind(fr, batches)
	}

	// Vectorized fast path: single-table aggregates without GROUP BY fold
	// straight off the column slices, no tuple materialization at all.
	if len(q.aggItems) > 0 && n == 1 && len(q.groupBy) == 0 &&
		(q.sel.Where == nil || cw != nil) {
		if out, ok, err := evalAggregatesColumnar(q, views[0], cw, fr); ok {
			return out, err
		}
	}

	// memo caches materialized tuples per (table, view position): one
	// table row joins into many combinations but materializes once.
	memo := make([]map[int]comm.Tuple, n)
	tupleAt := func(tbl, pos int) comm.Tuple {
		m := memo[tbl]
		if m == nil {
			m = make(map[int]comm.Tuple)
			memo[tbl] = m
		}
		t, ok := m[pos]
		if !ok {
			t = views[tbl].Row(pos)
			m[pos] = t
		}
		return t
	}

	// Cartesian product with WHERE filtering over row positions.
	env := &evalEnv{bools: e.boolFuncs}
	pos := make([]int, n)
	rowAt := func() Row {
		row := make(Row, n)
		for t := 0; t < n; t++ {
			row[q.tables[t].alias] = tupleAt(t, pos[t])
		}
		return row
	}
	var passing []Row
	var joinErr error
	var build func(i int)
	build = func(i int) {
		if joinErr != nil {
			return
		}
		if i == n {
			var row Row
			if q.sel.Where != nil {
				var ok bool
				var err error
				if cw != nil {
					ok, err = cw.eval(fr)
				} else {
					row = rowAt()
					env.row = row
					ok, err = env.evalBool(q.sel.Where)
				}
				if err != nil {
					joinErr = err
					return
				}
				if !ok {
					return
				}
			}
			if row == nil {
				row = rowAt()
			}
			passing = append(passing, row)
			return
		}
		v := views[i]
		for p := 0; p < v.Len(); p++ {
			pos[i] = p
			if fr != nil {
				fr.rows[i] = v.RowIndex(p)
			}
			build(i + 1)
		}
	}
	build(0)
	if joinErr != nil {
		return nil, joinErr
	}

	// Aggregate queries reduce the passing rows to one result row per
	// group (one row total without GROUP BY).
	if len(q.aggItems) > 0 {
		return evalAggregates(q, passing, e.boolFuncs)
	}

	// Action items: group by event and submit requests to the shared
	// operators.
	for _, item := range q.actionItems {
		e.emitRequests(q, item, passing)
	}

	// Projections for ad-hoc queries and reporting.
	if len(q.projItems) == 0 {
		return nil, nil
	}
	var rows []map[string]any
	for _, row := range passing {
		env.row = row
		out := make(map[string]any)
		for _, item := range q.projItems {
			if _, ok := item.(*sqlparse.Star); ok {
				for alias, t := range row {
					for k, v := range t {
						out[alias+"."+k] = v
					}
				}
				continue
			}
			v, err := env.evalExpr(item)
			if err != nil {
				return nil, err
			}
			out[item.String()] = v
		}
		rows = append(rows, out)
	}
	return rows, nil
}

// emitRequests groups the passing rows of one action item by event and
// submits one ActionRequest per event to the action's shared operator.
func (e *Engine) emitRequests(q *Query, item *actionItem, rows []Row) {
	type group struct {
		rep        Row
		candidates []CandidateDevice
		seen       map[string]bool
	}
	groups := make(map[string]*group)
	var orderedKeys []string
	for _, row := range rows {
		// Event key: ids of every non-device alias.
		var parts []string
		for _, bt := range q.tables {
			if bt.alias == item.deviceAlias {
				continue
			}
			id, _ := row[bt.alias]["id"].(string)
			parts = append(parts, bt.alias+"="+id)
		}
		key := strings.Join(parts, ",")
		g, ok := groups[key]
		if !ok {
			g = &group{rep: row, seen: make(map[string]bool)}
			groups[key] = g
			orderedKeys = append(orderedKeys, key)
		}
		devTuple := row[item.deviceAlias]
		devID, _ := devTuple["id"].(string)
		if devID == "" || g.seen[devID] {
			continue
		}
		g.seen[devID] = true
		g.candidates = append(g.candidates, CandidateDevice{ID: devID, Tuple: devTuple})
	}

	now := e.clk.Now()
	for _, key := range orderedKeys {
		g := groups[key]
		req := &ActionRequest{
			ID:         e.nextRequestID(),
			QueryID:    q.ID,
			Query:      q.Name,
			Action:     item.def.Name,
			EventKey:   key,
			Candidates: g.candidates,
			CreatedAt:  now,
		}
		if e.cfg.StaleAfter > 0 {
			req.Deadline = now.Add(e.cfg.StaleAfter)
		}
		rep := g.rep
		call := item.call
		devAlias := item.deviceAlias
		candByID := make(map[string]comm.Tuple, len(g.candidates))
		for _, c := range g.candidates {
			candByID[c.ID] = c.Tuple
		}
		req.bind = func(deviceID string) ([]any, error) {
			row := make(Row, len(rep))
			for k, v := range rep {
				row[k] = v
			}
			if t, ok := candByID[deviceID]; ok {
				row[devAlias] = t
			}
			env := &evalEnv{row: row, bools: e.boolFuncs}
			args := make([]any, len(call.Args))
			for i, a := range call.Args {
				v, err := env.evalExpr(a)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			return args, nil
		}
		if item.def.TargetExtractor != nil && len(g.candidates) > 0 {
			if args, err := req.bind(g.candidates[0].ID); err == nil {
				req.Target = item.def.TargetExtractor(args)
			}
		}
		e.operatorFor(item.def).submit(req)
	}
}

// acquireEvalSlot blocks until an evaluation slot frees up (the
// Config.EvalWorkers admission gate) or the query's context is cancelled.
// Without a cap it admits immediately.
func (e *Engine) acquireEvalSlot(ctx context.Context) (release func(), ok bool) {
	if e.evalSem == nil {
		return func() {}, true
	}
	select {
	case <-ctx.Done():
		return nil, false
	case e.evalSem <- struct{}{}:
		return func() { <-e.evalSem }, true
	}
}

// runQuery is the continuous-query loop. Instead of scanning on its own
// timer, the query subscribes its table needs to the shared scan fabric:
// the fabric samples each device type once per epoch for every subscriber
// together and routes back only the tuples passing the query's indexable
// predicates. Each delivered batch runs the post-scan half of the epoch
// (join, full WHERE, actions/aggregates).
func (e *Engine) runQuery(ctx context.Context, q *Query) {
	defer e.wg.Done()
	specs := make([]scanshare.TableSpec, len(q.tables))
	for i, bt := range q.tables {
		specs[i] = scanshare.TableSpec{
			Alias:      bt.alias,
			DeviceType: bt.deviceType,
			Attrs:      bt.attrs,
			Preds:      bt.preds,
		}
	}
	sub := e.fabric.Subscribe(q.Epoch, specs)
	defer sub.Close()
	for {
		var batch scanshare.Batch
		select {
		case <-ctx.Done():
			return
		case batch = <-sub.C:
		}
		err := batch.Err
		if err == nil {
			release, ok := e.acquireEvalSlot(ctx)
			if !ok {
				batch.Release()
				return
			}
			_, err = e.safeEvalScanned(q, batch.Tables)
			release()
		}
		batch.Release()
		quarantine := false
		q.mu.Lock()
		q.evals++
		if err != nil && ctx.Err() == nil {
			q.evalErrs++
			q.lastError = err
			if errors.Is(err, ErrPanic) {
				q.panics++
				if e.cfg.QuarantineAfter > 0 && q.panics >= int64(e.cfg.QuarantineAfter) && !q.quarantined {
					quarantine = true
				}
			}
		}
		q.mu.Unlock()
		if quarantine {
			// A poison query: the same input panics every epoch. Stop it
			// here — its own loop — rather than letting it grind on; the
			// cancel below also makes this loop's next select return.
			e.quarantineQuery(q, err)
			return
		}
	}
}
