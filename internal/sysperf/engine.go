package sysperf

// The queued memory engine: requests are enqueued at issue time and
// scheduled per channel by FR-FCFS (the paper's Table 2 scheduler), which
// prefers row-buffer hits over older requests. Banks proceed in parallel:
// the scheduler always dispatches the request that can start earliest, so a
// busy bank never delays traffic to an idle one.
//
// Scheduling is lazy: a channel's queue is only drained when some core
// needs one of its completions (MSHR pressure, a dependent load, or the end
// of its instruction budget). Requests issued by other cores after that
// point — which on hardware could still win arbitration — are not
// considered; the window is at most one inter-miss gap per core, which
// keeps the approximation tight at simulation cost O(requests log requests).

// pendingReq is one enqueued memory request.
type pendingReq struct {
	id      int64
	arrival float64 // ns
	row     uint64
	write   bool
}

// enqueue registers a request and returns its id.
func (d *dram) enqueue(arrival float64, row uint64, write bool) int64 {
	id := d.nextID
	d.nextID++
	ch := int(row % channels)
	d.pending[ch] = append(d.pending[ch], pendingReq{
		id: id, arrival: arrival, row: row, write: write,
	})
	d.channelOf[id] = ch
	return id
}

// resolve drains the owning channel until the request completes and returns
// its completion time. The completion record is consumed.
func (d *dram) resolve(id int64) float64 {
	if t, ok := d.completed[id]; ok {
		delete(d.completed, id)
		return t
	}
	ch := d.channelOf[id]
	for {
		d.scheduleNext(ch)
		if t, ok := d.completed[id]; ok {
			delete(d.completed, id)
			delete(d.channelOf, id)
			return t
		}
	}
}

// bankOf returns the bank a row address maps to within its channel.
func bankOf(row uint64) int { return int(row / channels % banksPerChannel) }

// bankRowOf returns a row address's row within its bank.
func bankRowOf(row uint64) uint64 { return row / channels / banksPerChannel }

// scheduleNext dispatches one request from the channel queue: the one that
// can start earliest, a row hit breaking a tie, then the oldest.
func (d *dram) scheduleNext(ch int) {
	q := d.pending[ch]
	if len(q) == 0 {
		//lint:ignore no-panic engine-internal invariant: callers check queue emptiness before scheduling
		panic("sysperf: scheduleNext on empty queue")
	}

	best := -1
	var bestStart float64
	var bestHit bool
	for i, req := range q {
		bank := bankOf(req.row)
		start := req.arrival
		if r := d.bankReady[ch][bank]; r > start {
			start = r
		}
		start = d.skipRefreshWindows(ch, start)
		hit := d.openRow[ch][bank] == bankRowOf(req.row)+1

		take := false
		switch {
		case best < 0, start < bestStart:
			take = true
		case start == bestStart && hit != bestHit:
			take = hit
		case start == bestStart:
			take = req.arrival < q[best].arrival ||
				(req.arrival == q[best].arrival && req.id < q[best].id)
		}
		if take {
			best, bestStart, bestHit = i, start, hit
		}
	}

	req := q[best]
	bank := bankOf(req.row)
	var svc float64
	if bestHit {
		svc = tCL + tBURST
		d.stats.RowHits++
	} else {
		svc = tRP + tRCD + tCL + tBURST
		d.openRow[ch][bank] = bankRowOf(req.row) + 1
		d.stats.Activations++
	}
	done := bestStart + svc
	d.bankReady[ch][bank] = done
	if req.write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	d.completed[req.id] = done

	// Remove from the queue preserving order.
	d.pending[ch] = append(q[:best], q[best+1:]...)
}
