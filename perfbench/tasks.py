"""The workloads: seeded task lists, the timed operation, the checks.

Each workload builds its inputs from the seed as *rounds* of equal
make-up, and a run executes whole rounds, so every run with the same
seed executes the same inputs in the same order. The program receives
only the generated inputs. Task code calls xsplice through its submodules
(``xs.phasematch.solve_signal_idler``) so that the traced run, which
rebinds those attributes, sees every call.

``rounds(n)`` returns the run's inputs as ``n`` rounds of equal make-up.
``run`` is the timed operation. ``check`` runs after the timed phase
and returns a list of failures; ``digest`` fingerprints an output so
that repeats of one input can be compared across rounds and sessions;
``fact`` returns what a check spanning several tasks needs.
"""

from __future__ import annotations

import hashlib

import numpy as np

import reference as ref


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _rel_close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Workload:
    """Defaults: no cross-task facts, no tolerated warnings."""

    #: Substrings of program warnings reported as notes instead of failures.
    TOLERATED_WARNINGS = ()

    def fact(self, inp, out):
        return None


class Design(Workload):
    """One source design per task, for a configuration from a seeded list.

    calibrate_birefringence -> solve_signal_idler -> tuning_curve
    (+/- 6 nm, 13 pumps) -> output_bandwidths -> optimize_compensators
    -> compensated 101x101 phase_map. The paper's configuration opens
    every round; the other eleven are a fresh Latin hypercube in each
    round over fiber length (stratified in order, since it sets the cost
    of the bandwidth walk), pump, target signal and both FWHMs. Fresh
    rows keep a cache keyed on the inputs from answering most tasks.
    """

    PAPER_MM = (67.3, 47.6)
    CAL_TOL_NM = 0.01  # calibrate_birefringence's default tol_nm

    def __init__(self, xs, cfg, seed, root):
        self.xs, self.cfg = xs, cfg
        self.core = ref.load_sellmeier(root)["fused_silica"]
        self.rng = np.random.default_rng([seed, 1])
        self.paper = (cfg.fiber.length_m, cfg.pump.center_nm, cfg.signal.center_nm,
                      cfg.pump.fwhm_nm, cfg.signal.fwhm_nm)

    def rounds(self, n):
        rng, k = self.rng, 11

        def strata(lo, hi, order=None):
            idx = np.arange(k) if order is None else order
            return lo + (hi - lo) * (idx + rng.random(k)) / k

        out = []
        for _ in range(n):
            length = strata(0.08, 0.30)
            pump = strata(766.0, 776.0, rng.permutation(k))
            target = strata(655.0, 685.0, rng.permutation(k))
            pump_fwhm = strata(0.2, 0.5, rng.permutation(k))
            signal_fwhm = strata(0.15, 0.35, rng.permutation(k))
            out.append([self.paper] + [tuple(float(v) for v in row) for row in
                                       zip(length, pump, target, pump_fwhm, signal_fwhm)])
        return out

    def run(self, inp):
        xs, cfg = self.xs, self.cfg
        length, lp, target, pump_fwhm, signal_fwhm = inp
        core = cfg.fiber.core_model
        b = xs.design.calibrate_birefringence(core, lp, target, length_m=length)
        fiber = xs.materials.FiberSpec(length, b, cfg.fiber.gamma, core)
        point = xs.phasematch.solve_signal_idler(fiber, lp)
        curve, skipped = xs.phasematch.tuning_curve(fiber, (lp - 6.0, lp + 6.0), 13)
        bw = xs.phasematch.output_bandwidths(fiber, point, pump_fwhm)
        pump = xs.states.GaussianSpectrum(lp, pump_fwhm)
        signal = xs.states.GaussianSpectrum(point.lambda_s_nm, signal_fwhm)
        sig, idl, std = xs.design.optimize_compensators(fiber, cfg.material, pump, signal)
        pmap = xs.phase.phase_map(
            fiber, (sig, idl),
            xs.phase.bandwidth_grid(signal.center_nm, signal_fwhm, 101),
            xs.phase.bandwidth_grid(lp, pump_fwhm, 101))
        return {"b": b, "fiber": fiber, "point": point, "curve": curve,
                "skipped": skipped, "bw": bw, "pump": pump, "signal": signal,
                "comps": (sig, idl), "std": std, "pmap": pmap}

    def digest(self, inp, out):
        pts = [(p.lambda_p_nm, p.lambda_s_nm, p.lambda_i_nm)
               for p in [out["point"], *out["curve"]]]
        comps = [(c.length_mm, c.orientation_sign) for c in out["comps"]]
        return _digest(out["b"], pts, out["skipped"], out["bw"], comps, out["std"],
                       out["pmap"].deviation_deg)

    def check(self, inp, out):
        xs = self.xs
        errors = []
        length, lp, target, pump_fwhm, signal_fwhm = inp
        b, point = out["b"], out["point"]
        for p in [point, *out["curve"]]:
            if not ref.energy_conserved(p.lambda_p_nm, p.lambda_s_nm, p.lambda_i_nm):
                errors.append(f"energy/ordering violated at pump {p.lambda_p_nm}")
            dk, tol = ref.mismatch_with_tol(self.core, b, p.lambda_p_nm, p.lambda_s_nm,
                                            p.lambda_i_nm)
            if not dk < tol:
                errors.append(f"|dk| = {dk:.3e} rad/m >= {tol:.3e} at pump {p.lambda_p_nm}")

        b_cf, db_dls = ref.closed_form_birefringence(self.core, lp, target)
        allowed = abs(db_dls) * self.CAL_TOL_NM * 1.05
        if not abs(b - b_cf) <= allowed:
            errors.append(f"calibrated B {b!r} vs closed form {b_cf!r} "
                          f"(allowed {allowed:.2e})")

        bw_s, bw_i = out["bw"]
        if not _rel_close(bw_i / bw_s, (point.lambda_i_nm / point.lambda_s_nm) ** 2, 1e-12):
            errors.append("idler/signal bandwidth ratio differs from (li/ls)^2")

        fiber, pump, signal = out["fiber"], out["pump"], out["signal"]
        sig, idl = out["comps"]
        std = out["std"]
        wps = xs.design.weighted_phase_std
        bare = wps(fiber, (), pump, signal)
        if not std <= bare:
            errors.append(f"compensated std {std} > uncompensated {bare}")
        a0 = sig.orientation_sign * sig.length_mm
        b0 = idl.orientation_sign * idl.length_mm
        for da, db in ((0.1, 0.0), (-0.1, 0.0), (0.0, 0.1), (0.0, -0.1)):
            comps = (self._comp(a0 + da, "signal"), self._comp(b0 + db, "idler"))
            stepped = wps(fiber, comps, pump, signal)
            if stepped < std * (1.0 - 1e-12):
                errors.append(f"step ({da:+}, {db:+}) mm lowers the weighted std "
                              f"{std} -> {stepped}")

        if inp == self.paper:
            for comp, want, sign in ((sig, self.PAPER_MM[0], +1), (idl, self.PAPER_MM[1], -1)):
                if not (abs(comp.length_mm - want) <= 0.03 * want
                        and comp.orientation_sign == sign):
                    errors.append(f"paper {comp.arm} compensator {comp.length_mm:.3f} mm "
                                  f"({comp.orientation_sign:+d}) vs {want} mm ({sign:+d})")

        pmap = out["pmap"]
        S, P = np.meshgrid(pmap.signal_nm, pmap.pump_nm, indexing="ij")
        w = ref.gaussian(S, signal.center_nm, signal.fwhm_nm) * ref.gaussian(P, lp, pump_fwhm)
        map_std = ref.weighted_std(pmap.deviation_deg, w)
        if not _rel_close(map_std, std, 1e-9):
            errors.append(f"weighted std of the phase map {map_std} vs {std}")
        return errors

    def _comp(self, signed_mm, arm):
        return self.xs.phase.CompensatorSpec(abs(signed_mm), self.cfg.material,
                                             +1 if signed_mm >= 0 else -1, arm)


class Sweep(Workload):
    """One visibility-versus-power sweep per task, 16 powers from 1 to 56 mW.

    Designs are drawn around the paper's: compensator lengths +/- 3 mm,
    pump FWHM +/- 20 %, baseline noise 0.05-0.12, fresh in each round.
    The paper's exact configuration opens every round. Each task also
    predicts counts and
    CAR at every power and takes the Bell fidelity and tangle of the
    30 mW state.
    """

    POWERS = np.linspace(1.0, 56.0, 16)
    CHECK_MW = 30.0
    PAPER_FIDELITY = 0.922

    def __init__(self, xs, cfg, seed, root):
        self.xs, self.cfg, self.seed = xs, cfg, seed
        self.rng = np.random.default_rng([seed, 2])
        self.paper = (cfg.compensators[0].length_mm, cfg.compensators[1].length_mm,
                      cfg.pump.fwhm_nm, cfg.baseline_noise, (seed, 0, 0))

    def rounds(self, n):
        rng, paper = self.rng, self.paper
        return [[paper] + [
            (float(paper[0] + rng.uniform(-3, 3)), float(paper[1] + rng.uniform(-3, 3)),
             float(paper[2] * rng.uniform(0.8, 1.2)), float(rng.uniform(0.05, 0.12)),
             (self.seed, r, k))
            for k in range(1, 5)] for r in range(n)]

    def _comps(self, a_mm, b_mm):
        c = self.cfg.compensators
        return tuple(self.xs.phase.CompensatorSpec(length, c[k].material,
                                                   c[k].orientation_sign, c[k].arm)
                     for k, length in enumerate((a_mm, b_mm)))

    def run(self, inp):
        xs, cfg = self.xs, self.cfg
        a_mm, b_mm, pump_fwhm, baseline, count_seed = inp
        comps = self._comps(a_mm, b_mm)
        pump = xs.states.GaussianSpectrum(cfg.pump.center_nm, pump_fwhm)
        rows = xs.counts.visibility_vs_power(cfg.noise, cfg.fiber, comps, self.POWERS,
                                             cfg.signal, pump, baseline_noise=baseline)
        records = [xs.counts.predict_counts(cfg.noise, float(p), 30.0, seed=[*count_seed, i])
                   for i, p in enumerate(self.POWERS)]
        cars = [xs.counts.car(cfg.noise, float(p)) for p in self.POWERS]
        state = xs.counts.effective_state_at_power(cfg.noise, cfg.fiber, comps, cfg.signal,
                                                   pump, self.CHECK_MW, baseline_noise=baseline)
        return {"rows": rows, "records": records, "cars": cars, "state": state,
                "bell": xs.states.best_bell_fidelity(state),
                "tangle": xs.states.tangle(state)}

    def digest(self, inp, out):
        recs = [(r.signal_total, r.idler_total, r.coincidences_total) for r in out["records"]]
        return _digest(out["rows"], recs, out["cars"], out["state"].matrix, out["bell"],
                       out["tangle"])

    def check(self, inp, out):
        xs, cfg = self.xs, self.cfg
        noise = cfg.noise
        errors = []
        a_mm, b_mm, pump_fwhm, baseline, _ = inp
        for pw, v_rect, v_diag in out["rows"]:
            if not (0.0 <= v_rect <= 1.0 and 0.0 <= v_diag <= 1.0):
                errors.append(f"visibility outside [0, 1] at {pw} mW: {v_rect}, {v_diag}")
        for pw, got in zip(self.POWERS, out["cars"]):
            r = ref.rates(noise, float(pw))
            if not _rel_close(got, r["true"] / r["acc"], 1e-12):
                errors.append(f"CAR at {pw} mW: {got} vs {r['true'] / r['acc']}")

        comps = self._comps(a_mm, b_mm)
        w = ref.white_noise_weight(noise, self.CHECK_MW, baseline)
        coh = ref.coherence_magnitude(
            lambda s, p: xs.phase.compensated_phase(cfg.fiber, comps, s, p),
            cfg.signal.center_nm, cfg.signal.fwhm_nm, cfg.pump.center_nm,
            pump_fwhm * (1.0 + noise.spm_coeff * self.CHECK_MW))
        got = abs(out["state"].matrix[0, 3]) / (0.5 * (1.0 - w))
        if not abs(got - coh) <= 1e-6:
            errors.append(f"|rho_HH,VV| implies coherence {got!r}, independent quadrature "
                          f"gives {coh!r}")

        if inp == self.paper:
            fid = out["bell"][0]
            bare = xs.counts.effective_state_at_power(noise, cfg.fiber, None, cfg.signal,
                                                      cfg.pump, self.CHECK_MW,
                                                      baseline_noise=baseline)
            bare_fid = xs.states.best_bell_fidelity(bare)[0]
            if not abs(fid - self.PAPER_FIDELITY) <= 1e-3:
                errors.append(f"paper Bell fidelity at 30 mW {fid} vs {self.PAPER_FIDELITY}")
            if not fid > bare_fid:
                errors.append(f"compensated fidelity {fid} <= uncompensated {bare_fid}")
        return errors


class Tomography(Workload):
    """One simulate_counts + reconstruct_mle (3 restarts) per task.

    Every round has the same eight strata: Werner states of the four
    Bell families at purities near 0.6, 0.75 and 0.9, and the model's
    effective state at powers near 10, 30 and 50 mW, at 1e3, 1e4 or
    1e5 counts per setting. The 30 mW state runs at 1e3 and at 1e5
    counts and adds error_bars with a 3-replicate bootstrap, the step
    behind the paper's +/- 0.2 %; the run pools these over its rounds.
    L-BFGS-B work varies several-fold with the counts drawn, so each
    round draws its own purities and Poisson seeds: a run averages over
    all its distinct inputs. The three model states are built once,
    during set-up.
    """

    N_BOOTSTRAP = 3
    #: reconstruct_mle's L-BFGS-B stop test (ftol 1e-15, gtol 1e-12 on a
    #: finite-difference gradient) can end in an ABNORMAL line search at the
    #: optimum on some draws, mostly in the single-start bootstrap replicates.
    #: The best iterate is still returned and the checks below still apply,
    #: so the warning is reported as a note, not as a failed check.
    TOLERATED_WARNINGS = ("likelihood maximization did not converge",)
    #: (Werner family or None for a model state, purity or power, counts, bootstrap)
    STRATA = (("phi+", 0.6, 1e3, False), ("phi-", 0.75, 1e4, False),
              ("psi+", 0.9, 1e5, False), ("psi-", 0.75, 1e3, False),
              (None, 10.0, 1e4, False), (None, 50.0, 1e5, False),
              (None, 30.0, 1e3, True), (None, 30.0, 1e5, True))

    def __init__(self, xs, cfg, seed, root):
        self.xs, self.seed = xs, seed
        self.rng = np.random.default_rng([seed, 3])
        self.models = {pw: xs.counts.effective_state_at_power(
                           cfg.noise, cfg.fiber, cfg.compensators, cfg.signal, cfg.pump,
                           pw + self.rng.uniform(-2.0, 2.0), baseline_noise=cfg.baseline_noise)
                       for pw in (10.0, 30.0, 50.0)}
        self.settings = xs.tomography.standard_settings()
        self.labels = [s.label for s in self.settings]
        self.truths = {}

    def rounds(self, n):
        out = []
        for r in range(n):
            row = []
            for k, (fam, x, level, bootstrap) in enumerate(self.STRATA):
                if fam is None:
                    st = self.models[x]
                else:
                    st = self.xs.states.werner_state(x + self.rng.uniform(-0.02, 0.02), fam)
                self.truths[r, k] = (st, self.xs.states.best_bell_fidelity(st)[1])
                row.append((r, k, level, bootstrap, self.seed))
            out.append(row)
        return out

    def run(self, inp):
        tomo = self.xs.tomography
        r, k, level, bootstrap, seed = inp
        truth, bell = self.truths[r, k]
        data = tomo.simulate_counts(truth, self.settings, level, seed=[seed, r, k])
        rho = tomo.reconstruct_mle(data)
        bars = (tomo.error_bars(data, self.N_BOOTSTRAP, seed=[seed, r, k, 1],
                                fidelity_target=bell) if bootstrap else None)
        return {"data": data, "rho": rho, "bars": bars}

    def digest(self, inp, out):
        return _digest(np.array(out["data"].counts), out["rho"].matrix, out["bars"])

    def fact(self, inp, out):
        if out["bars"] is None:
            return None
        return {"level": inp[2], "f_std": out["bars"][0],
                "t_std": out["bars"][1]}

    def check(self, inp, out):
        errors = []
        r, k, level, _, _ = inp
        truth = self.truths[r, k][0].matrix
        rho, data = out["rho"].matrix, out["data"]
        if [s.label for s in data.settings] != self.labels:
            errors.append("settings differ from the 36 standard labels")
            return errors
        nll_hat = ref.poisson_nll(rho, self.labels, data.counts, level)
        nll_true = ref.poisson_nll(truth, self.labels, data.counts, level)
        if not nll_hat <= nll_true + 1e-9 * abs(nll_true):
            errors.append(f"NLL of the estimate {nll_hat!r} > NLL of the truth {nll_true!r}")
        fid = ref.uhlmann_fidelity(rho, truth)
        bound = 1.0 - 100.0 / level
        if not fid > bound:
            errors.append(f"fidelity to truth {fid:.5f} <= {bound} at {level:g} counts")
        if out["bars"] is not None and not min(out["bars"]) > 0.0:
            errors.append(f"bootstrap stds not positive: {out['bars']}")
        return errors


WORKLOADS = {"design": Design, "sweep": Sweep, "tomography": Tomography}
