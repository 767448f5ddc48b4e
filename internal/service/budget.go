package service

import (
	"context"
	"errors"
	"time"
)

// ErrBudgetExhausted reports that a request's deadline budget expired
// mid-scan and the result is a best-effort partial top-K, not a failure.
// Callers that see it alongside non-nil matches should serve them with a
// degraded marker; callers that cannot degrade treat it as
// context.DeadlineExceeded.
var ErrBudgetExhausted = errors.New("service: request budget exhausted")

// Budget is one request's deadline, derived once at the API edge from the
// client's X-Request-Timeout header (clamped by -max-deadline) and carried
// on the context through admission, the engine, the corpus scan, and — as a
// remaining-millisecond field — every remote shard request. It is stored as
// an absolute deadline rather than a duration so queue wait subtracts
// implicitly: whatever time admission spends, the budget left reflects it.
type Budget struct {
	// Deadline is the absolute instant the client stops listening.
	Deadline time.Time
}

// mergeReserve is the slice of the remaining budget held back from the scan
// phase so the merge phase (and response encoding) still runs inside the
// deadline: a tenth of what is left, capped at 5ms.
const mergeReserveCap = 5 * time.Millisecond

// Expired reports whether the deadline has passed.
func (b Budget) Expired() bool { return !b.Deadline.IsZero() && !time.Now().Before(b.Deadline) }

// ScanDeadline is the phase split: the instant the scan loops must yield,
// reserving min(10% of remaining, 5ms) for merge and encoding. The
// fingerprint phase runs before the budget is consulted (it is bounded and
// cheap next to the scan), so the split is effectively
// fingerprint → scan(deadline−reserve) → merge(reserve).
func (b Budget) ScanDeadline() time.Time {
	if b.Deadline.IsZero() {
		return time.Time{}
	}
	rem := time.Until(b.Deadline)
	if rem <= 0 {
		return b.Deadline
	}
	reserve := rem / 10
	if reserve > mergeReserveCap {
		reserve = mergeReserveCap
	}
	return b.Deadline.Add(-reserve)
}

type budgetKey struct{}

// WithBudget attaches a request budget to ctx. The API layer pairs it with
// context.WithTimeout on the same deadline, so plain ctx cancellation and
// budget expiry agree; the explicit Budget value exists so downstream layers
// can distinguish "deadline spent" (serve a degraded partial) from "client
// hung up" (nobody is listening, serve nothing).
func WithBudget(ctx context.Context, b Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetOf returns the request budget on ctx, if one was attached.
func BudgetOf(ctx context.Context) (Budget, bool) {
	b, ok := ctx.Value(budgetKey{}).(Budget)
	return b, ok
}

// DeadlineExpired reports whether ctx stopped because its time ran out —
// either the attached Budget expired or the context itself reports
// DeadlineExceeded — as opposed to a plain cancellation (client
// disconnect), which callers must not answer with a degraded body.
func DeadlineExpired(ctx context.Context) bool {
	if b, ok := BudgetOf(ctx); ok && b.Expired() {
		return true
	}
	return errors.Is(ctx.Err(), context.DeadlineExceeded)
}
