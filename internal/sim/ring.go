package sim

// ringQueue is the engine's wait queue: a power-of-two ring deque of
// *jobState supporting O(1) amortised pushBack (arrivals), pushFront
// (failed jobs returning to the head, per the paper) and popFront. It
// replaces the previous `append`-prepend / `queue[1:]` re-slicing, which
// made every retry O(n) and pinned dequeued jobs in the backing array.
// Vacated slots are nilled and the buffer shrinks when occupancy drops
// to a quarter, so the queue releases memory after load spikes.
//
// The ring is owned by the engine's single driving goroutine; it is not
// safe for concurrent use and deliberately has no lock.
type ringQueue struct {
	buf  []*jobState // len(buf) is always a power of two (or zero)
	head int
	n    int
}

const minRingCap = 16

func (q *ringQueue) len() int { return q.n }

// at returns the i-th queued job (0 = head). i must be < len.
func (q *ringQueue) at(i int) *jobState {
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

func (q *ringQueue) pushBack(js *jobState) {
	q.growIfFull()
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = js
	q.n++
}

func (q *ringQueue) pushFront(js *jobState) {
	q.growIfFull()
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = js
	q.n++
}

func (q *ringQueue) popFront() *jobState {
	js := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.maybeShrink()
	return js
}

// compact removes the entries at positions [first, visible) that dropped
// marks, preserving the relative order of survivors (the same order the
// previous `kept := queue[:0]` filter produced). first must be the
// lowest marked position: everything before it stays where it is.
func (q *ringQueue) compact(first, visible int, dropped []bool) {
	mask := len(q.buf) - 1
	w := first
	for i := first + 1; i < visible; i++ {
		if !dropped[i] {
			q.buf[(q.head+w)&mask] = q.buf[(q.head+i)&mask]
			w++
		}
	}
	// Slide the unexamined tail down and nil the vacated slots.
	for i := visible; i < q.n; i++ {
		q.buf[(q.head+w)&mask] = q.buf[(q.head+i)&mask]
		w++
	}
	for i := w; i < q.n; i++ {
		q.buf[(q.head+i)&mask] = nil
	}
	q.n = w
	q.maybeShrink()
}

func (q *ringQueue) growIfFull() {
	if q.n < len(q.buf) {
		return
	}
	newCap := minRingCap
	if len(q.buf) > 0 {
		newCap = len(q.buf) * 2
	}
	q.resize(newCap)
}

// maybeShrink halves the buffer when three quarters of it sit idle, so
// a drained queue hands its spike-sized backing array back to the GC.
func (q *ringQueue) maybeShrink() {
	if len(q.buf) > minRingCap && q.n <= len(q.buf)/4 {
		q.resize(len(q.buf) / 2)
	}
}

func (q *ringQueue) resize(newCap int) {
	nb := make([]*jobState, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.at(i)
	}
	q.buf = nb
	q.head = 0
}
