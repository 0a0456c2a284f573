// Package aorta is a pervasive query processing framework — a full Go
// reproduction of "Systems Support for Pervasive Query Processing"
// (Xue, Luo, Ni; ICDCS 2005).
//
// Aorta lets applications task a network of heterogeneous devices —
// PTZ cameras, sensor motes, phones — with SQL-style action-embedded
// continuous queries:
//
//	CREATE AQ snapshot AS
//	  SELECT photo(c.ip, s.loc, "photos/admin")
//	  FROM sensor s, camera c
//	  WHERE s.accel_x > 500 AND coverage(c.id, s.loc)
//
// Whenever a sensor detects the event (acceleration above 500 mg), the
// engine probes the candidate cameras, picks the cheapest available one
// (cost = estimated execution time, driven by the camera's current head
// position), locks it, moves its head, takes the photo, and stores it —
// all without the application handling device APIs, transmission loss or
// concurrency.
//
// # Architecture
//
// Aorta has three layers (paper §2.1):
//
//   - a declarative interface: extended SQL with CREATE ACTION (register
//     user-defined actions) and CREATE AQ (register named continuous
//     queries with embedded actions);
//   - an action-oriented query engine: continuous evaluation over virtual
//     device tables, shared action operators that batch and schedule
//     concurrent requests (five scheduling algorithms, including the
//     paper's LERFA+SRFE and SRFAE heuristics), cost-based device
//     selection, and device synchronization (per-device locking plus
//     availability probing with timeouts);
//   - a uniform data communication layer: device catalogs and profiles,
//     scan operators over virtual relational tables, and typed
//     probe/read/exec messaging over any stream transport (in-memory
//     simulated network with fault injection, or real TCP). Device
//     connections are pooled: operations share one persistent,
//     health-checked session per device, and devices that refuse a dial
//     enter exponential backoff instead of being re-dialed every epoch.
//     Config.PoolMaxSessions (no cap by default: the registry bounds the
//     sessions), Config.PoolIdleTTL and Config.DialBackoff tune the pool.
//
// # Quick start
//
//	l, err := aorta.NewLab(aorta.LabConfig{})   // 2 cameras, 10 motes, 1 phone
//	if err != nil { ... }
//	defer l.Close()
//	l.Engine.Start(context.Background())
//	l.Engine.Exec(ctx, `CREATE AQ snapshot AS ...`)
//	l.StimulateMote(2, 900, 3*time.Second)      // push the "door"
//	// ... l.Engine.Photos() now contains the snapshot.
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper's evaluation.
package aorta
