"""The scaled-weight SVM engine, which ``run_all`` loads only for SVM
runs.

SVM problems cost O(nnz) per trial and step. Each trial's iterate is held as
w = s*v with a scalar s, so the shrink by (1 - eta*lam) touches only s and
the hinge step touches only the sampled row's columns of v (the scaled-weight
trick of Pegasos). Each averaged scheme's sum sum_i a_i w_i, with the
weights a_i and the total that divides it read from the scheme's averager
(``weights``, ``total``), is held as A*v - U with a scalar A, and U changes
only where v does (the lazily updated average of ASGD). Dense vectors are
built only at checkpoints and at folds, which write the pending scale into v. A
checkpoint builds and evaluates the reports scheme by scheme, a chunk of
trials at a time, whose dense reports and margins take about 1 MB; no
report is kept past its checkpoint. An L2 ball about the origin rescales s
alone. Any other bounded set (the interval box, a ball off the origin)
folds every trial at every step, which costs O(n), and then projects v:
after a fold A = 0, so the sums keep their values. The results agree with
``run_sgd`` up to rounding, not bitwise, and no trajectory is recorded.

A step makes a fixed, small number of numpy calls on arrays of about
trials * nnz-per-row entries, and only for the work that depends on the
iterate: the margins, the active trials, the update of v and its finiteness
test. Everything else is built once per sub-block of steps, in a few
vectorized passes: the sampled rows (each row's columns as indices into the
stacked v, their trials, values and labels), the step sizes (``step_size``
of an array of steps), s before and after each shrink
(np.multiply.accumulate), each averaged scheme's A as a step reports it and
as its update is logged (np.cumsum, restarted at each fold) and every
entry's update coefficient eta*y/s*x. These accumulations add and multiply
in step order, as per-step updates would, so every value keeps its bits.
Unconstrained runs and the sets that fold at every step know their folds
and one s for all trials in advance; under an L2 ball about the origin the
rescale makes s depend on the iterate, and each step fills its own row of
the same tables.

The gathered sub-block is also the log of deferred updates: a step marks
which of its entries it applied to v, and U[k][cols] += A[k]*coef is applied
for the marked entries by np.add.at before each checkpoint and fold and at
the end of the sub-block. np.add.at adds an entry's terms one by one in
entry order, which is step order, so U holds exactly the sums that per-step
updates give. The sample indices (below m) take ``Dataset``'s index dtype
rule: int32 while it holds their bound, else int64. The flat columns and
owners are gathered as intp, numpy's own index type, which a step's
indexing, ``np.bincount`` and ``np.add.at`` take without a conversion. The
index block is trial-major, as a lockstep Oracle's noise blocks are: the
law's ``fill`` draws row i from trial i's generator, and a sub-block reads
its steps as columns. It is sized from ``_INDEX_BLOCK_BYTES`` (8 MB, read
at call time, as the budget is): ``Generator.integers`` has no ``out=``, so
each row is drawn and then copied, and a smaller block would only add
calls. A sub-block's tables, with the arrays its gather builds them from,
take a quarter of it (2 MB), all as if every sampled row were the longest
and every index took 8 bytes, the lengths at which the engine was timed;
int32 sample indices then take fewer bytes. The two count against the
budget together, and ``predraw_bytes`` reports the bytes they are
allocated.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..averaging import make_averager
from ..core import L2Ball, Problem, Unconstrained, _BALL_SLACK, _block_steps, _reserve, step_size
from ..data import _index_dtype
from ..oracles import SvmOracleFactory, _generators
from ..sgd import (_NON_FINITE, RunAborted, RunRecord, _finite_objectives, _first_bad,
                   checkpoint_iterations)

# Bytes of the index block, sized as 8-byte indices. A sub-block's tables
# take a quarter of it and a checkpoint chunk an eighth.
_INDEX_BLOCK_BYTES = 8_000_000

# An SVM trial folds its scale into v before a step takes |s| below this, or
# above 1 (a step size with eta*lam > 2). The rounding error of A*v - U grows
# like 1/_MIN_SCALE (v is up to 1/_MIN_SCALE times w): at 1e-6 the objectives
# drifted 1.9e-12 from run_sgd's under an L2 ball, at 1e-2 they
# agree to a few ulps. Folds stay rare (about log10(T) of them under the
# default schedule), and the check catches the exact zero of 1 - eta*lam at
# t = 1.
_MIN_SCALE = 1e-2


def _svm_blocks(index: int, rows: int, T: int) -> tuple[int, int]:
    """Steps per block of the SVM engine's two tables, given the bytes per
    step of each: the sample indices and a sub-block of the index block's
    steps (its gathered rows, which are also the log of deferred updates,
    and the step tables). A sub-block takes a quarter of _INDEX_BLOCK_BYTES
    (2 MB sub-blocks ran faster than 8 MB and than 1 MB ones), and the two
    tables fit the budget together."""
    held = index + rows
    block = _block_steps(_INDEX_BLOCK_BYTES, index, T, held)
    return block, _block_steps(_INDEX_BLOCK_BYTES // 4, rows, block, held)


def _sub_block_bytes(trials: int, longest: int, k: int, width: int) -> int:
    """Bytes per step of a sub-block's tables for ``trials`` trials and
    ``k`` averaged schemes, with every sampled row as long as the longest,
    at ``width`` bytes per flat column and owner: per entry those two, the
    value and update coefficient (8 bytes each), the applied flag (1) and 16
    bytes for the arrays _gather builds them from; per trial the label, s
    and each scheme's observed and logged A; per step its size, shrink, fold
    flag, offset and each scheme's a_t."""
    return trials * (longest * (2 * width + 33) + 16 + 16 * k) + (k + 4) * 8


def _trials_per_chunk(trial_bytes: int) -> int:
    """Trials per chunk of a checkpoint evaluation that holds ``trial_bytes``
    per trial (an SVM's dense report and margins, n + m floats): as many as
    fit in an eighth of _INDEX_BLOCK_BYTES (1 MB), and at least one."""
    return max(1, _INDEX_BLOCK_BYTES // 8 // trial_bytes)


def _evaluate_chunked(problem: Problem, reports: dict, t: int, trials: int, chunk: int):
    """The checkpoint objectives of every trial's report, scheme by scheme
    and ``chunk`` trials at a time: ``reports`` maps each scheme to a
    function from a slice of trials to their (rows, dim) reports."""
    vals = {}
    for nm, report in reports.items():
        v = np.empty(trials)
        for lo in range(0, trials, chunk):
            rows = slice(lo, lo + chunk)
            v[rows] = problem.objective_rows(report(rows))
        vals[nm] = _finite_objectives(v, nm, t)
    return vals


class _ScaledSvm:
    """Stacked SVM trials with iterates w = s*v and, per averaged scheme k,
    sums A[k]*v - U[k]; see the module docstring. ``radius`` is set for an
    L2 ball about the origin, whose projection rescales s using the running
    ||v||^2 in ``vv``. ``project`` is set for any other bounded set: every
    step then folds every trial and projects v.

    The tables of a sub-block of steps, j = 0 .. steps-1: S[j] is s as step
    j starts and S[steps] as the sub-block ends; A_obs[:, j] is A as step j
    reports, after adding a_t*s; A_log[:, 0] is A as the sub-block starts
    and A_log[:, j+1] is A as step j's update is made, after any fold of
    that step; coef holds every gathered entry's update eta*y/s*x, with the
    s of that update. Without the ball's rescale s is one scalar for all
    trials whose folds are known in advance, and _fill fills every row;
    under the ball each step fills its own row."""

    def __init__(self, problem, factory: SvmOracleFactory, config, scheme_names,
                 trials, base_seed, suffix_alpha):
        d = factory.dataset
        self.T = config.T
        self.trials = trials
        self.law = factory
        self.starts, self.indices, self.data = d.indptr[:-1], d.indices, d.data
        self.lens = np.diff(d.indptr)
        self.labels = d.labels
        self.lam = factory.lam
        self.mu, self.schedule = problem.mu, config.schedule
        self.schemes = [make_averager(nm, T=config.T, suffix_alpha=suffix_alpha)
                        for nm in scheme_names]
        # the schemes held as sums A[k]*v - U[k], k indexing this list
        self.averaged = [av for av in self.schemes if av.weighted]
        feasible = problem.feasible
        centered = isinstance(feasible, L2Ball) and not feasible.center.any()
        self.radius = feasible.radius if centered else None
        bounded = not (centered or isinstance(feasible, Unconstrained))
        self.project = feasible.project if bounded else None

        # the sample indices (below m) take Dataset's index dtype: int32
        # while it holds them
        sample = _index_dtype(d.m)
        k = len(self.averaged)
        longest = int(self.lens.max())
        # the block lengths are those of 8-byte indices, at which they were
        # timed; the tables then take the bytes of their own dtypes. The
        # tables of s and logged A hold one more row, the carry.
        self.block, self.sub = _svm_blocks(
            trials * 8, _sub_block_bytes(trials, longest, k, 8), config.T)
        index = trials * sample.itemsize
        # the index block alone names its own bytes when it exceeds the budget
        _reserve(self.block * index, "one block of sample indices")
        self.reserved = _reserve(
            self.block * index
            + self.sub * _sub_block_bytes(trials, longest, k, np.dtype(np.intp).itemsize)
            + trials * (k + 1) * 8, "one block of sample indices and a sub-block's tables")
        # (trials, block): trial i's generator fills row i, step t is a column
        self.idx = np.empty((trials, self.block), dtype=sample)
        self.gens = _generators(trials, base_seed, self.block, config.T)
        # the gathered entries of one sub-block: those of step j lie in
        # offsets[j]:offsets[j+1], trial by trial; see _gather
        entries = self.sub * trials * longest
        self.owner = np.empty(entries, dtype=np.intp)
        self.flat = np.empty(entries, dtype=np.intp)
        self.vals = np.empty(entries)
        self.coef = np.empty(entries)
        # the log of deferred updates U[k][flat] += A_log[k]*coef: the entries
        # whose trial's margin was below 1; _flush applies steps flushed..done-1
        self.applied = np.empty(entries, dtype=bool)
        self.S = np.ones((self.sub + 1, trials))
        self.A_obs = np.empty((k, self.sub, trials))
        self.A_log = np.zeros((k, self.sub + 1, trials))
        self.steps = self.flushed = self.done = 0
        self.j = -1  # the current step's position in the sub-block

        self.v = np.tile(np.asarray(config.x1, dtype=np.float64), (trials, 1))
        self.U = np.zeros((k, trials, d.n))
        self.vv = np.einsum("ij,ij->i", self.v, self.v) if self.radius is not None else None
        # flat views for the scatter updates; v and U are only written in place
        self.v_flat = self.v.reshape(-1)
        self.U_flat = [U.reshape(-1) for U in self.U]
        self.n = d.n
        self.trial_ids = np.arange(trials)
        self._enter(1)

    def _enter(self, t):
        """Make step t the current one, gathering its sub-block and filling
        its tables first at the sub-block's first step; under the ball, fill
        step t's A_obs."""
        self.j += 1
        if self.j == self.steps:
            self._tables(t - 1, self._gather(t - 1))
        if self.radius is not None and self.averaged:
            j = self.j
            np.add(self.A_log[:, j], self.W[:, j, None] * self.S[j], out=self.A_obs[:, j])

    def _gather(self, t0) -> int:
        """Apply the finished sub-block's updates and draw the next block of
        sample indices when step t0+1 starts one. Then gather, from step
        t0+1 to the end of the sub-block, each sampled row's flat columns
        (trial b's entry j of v is v_flat[b*n + j]), its owning trials,
        values and labels; returns the number of steps."""
        self._flush()
        k0 = t0 % self.block
        if k0 == 0:
            self.law.fill(self.gens, self.idx[:, :min(self.block, self.T - t0)], t0)
        steps = min(self.sub, self.block - k0, self.T - t0)
        # (steps, trials): the gathered entries run step- and trial-major
        sel = np.ascontiguousarray(self.idx[:, k0:k0 + steps].T)
        lens = self.lens[sel].ravel()
        ends = lens.cumsum()
        used = int(ends[-1])
        # positions of the sampled rows' entries in the CSR arrays, step- and trial-major
        pos = (self.starts[sel].ravel() - ends + lens).repeat(lens)
        pos += np.arange(used)
        owner = self.owner[:used]
        owner[:] = np.tile(self.trial_ids, steps).repeat(lens)
        flat = self.flat[:used]
        np.multiply(owner, self.n, out=flat)
        flat += self.indices[pos]
        np.take(self.data, pos, out=self.vals[:used])
        self.applied[:used] = False
        self.offsets = [0] + ends[self.trials - 1::self.trials].tolist()
        self.lens_sel = lens
        self.y = self.labels[sel]
        return steps

    def _tables(self, t0, steps):
        """Start the step tables of steps t0+1 .. t0+steps from the carry,
        with their step sizes, shrinks and each scheme's a_t, and fill their
        rows unless the ball's rescale decides them."""
        self.S[0] = self.S[self.steps]
        self.A_log[:, 0] = self.A_log[:, self.steps]
        self.steps, self.flushed, self.done, self.j = steps, 0, 0, 0
        ts = np.arange(t0 + 1, t0 + steps + 1)
        eta = step_size(self.schedule, self.mu, ts)
        shrink = 1.0 - eta * self.lam
        self.W = np.array([av.weights(ts) for av in self.averaged], float).reshape(-1, steps)
        self.eta, self.shrink = eta.tolist(), shrink.tolist()
        if self.radius is None:
            self._fill(eta, shrink)

    def _fill(self, eta, shrink):
        """Fill every row of the step tables, for a set whose s is one scalar
        for all trials: s shrinks by (1 - eta*lam) and folds to 1 at the
        steps _folds marks, after every step on a projected set, and A adds
        a_t*s and resets to 0 at every fold. The sequential accumulations
        add and multiply in step order, as per-step updates do."""
        steps = len(shrink)
        s = self.S[:steps + 1, 0].copy()
        if self.project is not None:
            # every step starts from the fold that ended the one before: s = 1, A = 0
            s[:] = 1.0
            folds = ~_scale_kept(shrink, shrink)
            A = 0.0 + self.W
        else:
            folds = self._folds(s, shrink)
            X = self.W * s[:-1]
            A = np.empty_like(X)
            lo, carry = 0, self.A_log[:, 0, :1]
            for hi in np.flatnonzero(folds[:-1]).tolist() + [steps - 1]:
                A[:, lo:hi + 1] = np.cumsum(
                    np.concatenate([carry, X[:, lo:hi + 1]], axis=1), axis=1)[:, 1:]
                lo, carry = hi + 1, np.zeros_like(carry)
        # s at each step's update: 1 after a fold of that step
        at = np.where(folds, 1.0, s[:-1] * shrink)
        self.S[:steps + 1] = s[:, None]
        self.A_obs[:, :steps] = A[:, :, None]
        self.A_log[:, 1:steps + 1] = np.where(folds, 0.0, A)[:, :, None]
        self.folds = folds.tolist()
        C = eta[:, None] * self.y / at[:, None]
        used = self.offsets[-1]
        np.multiply(C.ravel().repeat(self.lens_sel), self.vals[:used], out=self.coef[:used])

    @staticmethod
    def _folds(s, shrink):
        """Given s[0], fill s[1:] with s after each step, a fold resetting it
        to 1; returns whether each step folds. The products are taken through
        np.multiply.accumulate, at most 64 steps at a time, which bounds the
        work of a fold at every step."""
        window = 64
        folds = np.zeros(len(shrink), dtype=bool)
        lo = 0
        while lo < len(shrink):
            sh = shrink[lo:lo + window]
            after = np.multiply.accumulate(np.concatenate([s[lo:lo + 1], sh]))[1:]
            bad = np.flatnonzero(~_scale_kept(after, sh))
            n = bad[0] + 1 if bad.size else after.size
            s[lo + 1:lo + n + 1] = after[:n]
            if bad.size:
                folds[lo + n - 1] = True
                s[lo + n] = 1.0
            lo += n
        return folds

    def _flush(self):
        """Add the marked entries of steps flushed .. done-1 to U. np.add.at
        adds an entry's terms one by one in entry order, which is step order,
        so U gets the sums that per-step updates give."""
        lo, hi = self.flushed, self.done
        if lo == hi or not self.averaged:
            return
        a, b = self.offsets[lo], self.offsets[hi]
        keep = self.applied[a:b]
        flat, coef = self.flat[a:b][keep], self.coef[a:b][keep]
        lens = self.lens_sel[lo * self.trials:hi * self.trials]
        for A_log, U in zip(self.A_log, self.U_flat):
            np.add.at(U, flat, A_log[lo + 1:hi + 1].ravel().repeat(lens)[keep] * coef)
        self.flushed = hi

    def reports(self, t) -> dict:
        """Per scheme whose report is defined at step t, a function from a
        slice of trials to their dense (rows, n) reports; valid until the
        next step."""
        self._flush()
        s, A = self.S[self.j], self.A_obs[:, self.j]
        out = {}
        for av in self.schemes:
            if not av.weighted:
                out[av.name] = lambda rows: s[rows, None] * self.v[rows]
            elif total := av.total(t):
                k = self.averaged.index(av)
                out[av.name] = partial(self._average, A[k], self.U[k], total)
        return out

    def _average(self, A, U, total, rows):
        """(A*v - U) / total for the trials ``rows``, in one (rows, n) array."""
        R = A[rows, None] * self.v[rows]
        R -= U[rows]
        R /= total
        return R

    def fold(self, rows, scale, t, A):
        """Write the sums of the given trials densely into U, from their A,
        then v <- scale*v; the caller sets their s to 1 and A to 0."""
        self._flush()
        v = self.v[rows]
        self.U[:, rows] -= A[:, rows, None] * v
        v *= scale
        if not np.isfinite(v).all():
            raise RunAborted(t, _NON_FINITE, int(rows[_first_bad(~np.isfinite(v))]))
        self.v[rows] = v
        if self.vv is not None:
            self.vv[rows] = np.einsum("ij,ij->i", v, v)

    def _ball_row(self, j, t, a, b, owner) -> bool:
        """Under the ball: s after step j's shrink and folds, its logged A and
        the coefficients of its entries a:b, owned by the trials ``owner``;
        returns whether any trial folded."""
        shrink = self.shrink[j]
        s = self.S[j] * shrink
        A = self.A_log[:, j + 1]
        A[:] = self.A_obs[:, j]
        kept = _scale_kept(s, shrink)
        folded = not kept.all()
        if folded:
            rows = np.flatnonzero(~kept)
            self.fold(rows, s[rows, None], t, self.A_obs[:, j])
            A[:, rows] = 0.0
            s[rows] = 1.0
        self.S[j + 1] = s
        np.multiply((self.eta[j] * self.y[j] / s)[owner], self.vals[a:b],
                    out=self.coef[a:b])
        return folded

    def step(self, t):
        """Step t of every trial, then enter step t+1."""
        j = self.j
        a, b = self.offsets[j], self.offsets[j + 1]
        owner, flat, vals = self.owner[a:b], self.flat[a:b], self.vals[a:b]
        vflat = self.v_flat
        old = vflat[flat]
        margins = self.S[j] * np.bincount(owner, weights=old * vals,
                                          minlength=self.trials) * self.y[j]
        if self.radius is not None:
            if self._ball_row(j, t, a, b, owner):
                old = vflat[flat]
        elif self.folds[j]:
            self.fold(self.trial_ids, self.S[j, 0] * self.shrink[j], t, self.A_obs[:, j])
            old = vflat[flat]

        active = margins < 1.0
        n_active = np.count_nonzero(active)
        if n_active:
            coef = self.coef[a:b]
            if n_active < self.trials:
                keep = active[owner]
                self.applied[a:b] = keep
                owner, flat, old, coef = owner[keep], flat[keep], old[keep], coef[keep]
            else:
                self.applied[a:b] = True
            new = old + coef
            vflat[flat] = new
            if self.vv is not None:
                self.vv += np.bincount(owner, weights=new * new - old * old,
                                       minlength=self.trials)
            if not np.isfinite(new).all():
                bad = ~np.isfinite(new)
                raise RunAborted(t, _NON_FINITE, int(owner[np.argmax(bad)]))
        self.done = j + 1
        if self.radius is not None:
            s = self.S[j + 1]
            # the running sum's rounding can leave vv just below 0 near v = 0
            nrm = abs(s) * np.sqrt(np.maximum(self.vv, 0.0))
            over = nrm > self.radius * (1.0 + _BALL_SLACK)
            if over.any():
                s[over] *= self.radius / nrm[over]
        elif self.project is not None:
            # after the fold A = 0, so projecting v leaves every sum A*v - U as it is
            scale = 1.0 if self.folds[j] else self.S[j, 0] * self.shrink[j]
            self.fold(self.trial_ids, scale, t, self.A_log[:, j + 1])
            self.v[:] = self.project(self.v)
        if t < self.T:
            self._enter(t + 1)


def _scale_kept(after, shrink) -> np.ndarray:
    """Whether a scale s*shrink = ``after`` stays unfolded: _MIN_SCALE <=
    |after| and, when |shrink| > 1, |after| <= 1 (False for a NaN). Keeping
    _MIN_SCALE <= |s| <= 1 makes every entry of w finite exactly when the
    same entry of v is; |s| stays <= 1 while |shrink| <= 1, since a fold
    sets s to 1 and the ball's rescale only shrinks it."""
    size = np.abs(after)
    return (size >= _MIN_SCALE) & ((np.abs(shrink) <= 1.0) | (size <= 1.0))


def _run_svm(problem, factory, config, scheme_names, trials, base_seed, suffix_alpha):
    plan = _ScaledSvm(problem, factory, config, scheme_names, trials, base_seed, suffix_alpha)
    cp_set = set(checkpoint_iterations(config))
    cp_values: list[tuple[int, dict[str, np.ndarray]]] = []
    d = factory.dataset
    chunk = _trials_per_chunk(8 * (d.n + d.m))
    for t in range(1, config.T + 1):
        if t in cp_set:
            cp_values.append((t, _evaluate_chunked(problem, plan.reports(t), t, trials, chunk)))
        plan.step(t)
    return RunRecord({}, cp_values, predraw_bytes=plan.reserved)
