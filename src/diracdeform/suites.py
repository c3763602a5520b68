"""Named verification suites: seeded generators plus replayable executors.

Every randomized check is a pair (generator, executor).  The generator draws
a JSON payload from a per-(seed, check, trial) rng; the executor evaluates
the payload and returns (ok, detail).  A failing check embeds its payload as
a counterexample; feeding that payload back through `run_replay` (or the CLI
`run` command) reproduces the failure.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from typing import Callable

from . import dirac, linalg
from .courant import (
    dorfman,
    graph_of_form_frame,
    is_dirac_frame,
    section,
)
from .dirac import (
    Bivector,
    NonHorizontalError,
    NotInIZError,
    SkewBilinear,
    Subspace,
    decompose_horizontal,
    default_complement,
    dirac_exp,
    graph_of_form,
    graph_of_bivector,
    in_I_Z,
    lagrangian_graph,
    is_lagrangian,
    pairing,
    phi_Z,
    rank_and_kernel,
    skew_from_json,
    skew_to_json,
    subspace_from_json,
    subspace_to_json,
    tau_bivector,
    tau_form,
    verify_linear_lemmas,
    v_star_subspace,
    v_subspace,
    Z_from_eta_G,
)
from .exterior import (
    Chart,
    DifferentialForm,
    MultivectorField,
    contract,
    de_rham,
    dx,
    evaluate,
    field_from_json,
    form_from_json,
    partial,
    schouten,
    to_json,
    wedge,
)
from .koszul import (
    DEFAULT_GRID_COORDS,
    KoszulContext,
    ShiftedForm,
    form_to_skew,
    i_z_determinant,
    jacobi_residual,
    koszul_bracket,
    koszul_bracket_oneform,
    lam,
    lie_by_bivector,
    mc_equivalence_report,
    mc_residual,
    mu,
    psi_from_dorfman,
    F_symbolic_form,
)
from .presymplectic import (
    CannotCertifyError,
    DistributionFrame,
    certify_constant_rank,
    deform,
    horizontal_preservation_conditions,
    horizontality_witness_search,
    instance_from_json,
    instance_to_json,
    is_horizontal,
    kernel_distribution,
    koszul_preserves_horizontal,
    phi_z_frame,
)
from .randgen import (
    random_complement,
    random_field,
    random_form,
    random_horizontal_form,
    random_horizontal_skew,
    random_in_IZ,
    random_point,
    random_presymplectic_instance,
    random_rank_k_skew,
    random_skew,
    shrink_into_IZ,
)
from .rational import Scalar, _quote, rational_from_str, scalar_from_str
from .report import DEFAULT_GRID, CheckOutcome, SuiteConfig


class SkipCheck(Exception):
    """Raised by an executor to mark a check as skipped."""


# an executor returns (ok, detail) or (ok, detail, witness-JSON)
Executor = Callable[[dict], tuple]
Generator = Callable[[random.Random, SuiteConfig], dict]

CHECK_EXECUTORS: dict[str, Executor] = {}
CHECK_GENERATORS: dict[str, Generator] = {}


def executor(name: str):
    def deco(fn: Executor):
        CHECK_EXECUTORS[name] = fn
        return fn

    return deco


def generator(name: str):
    def deco(fn: Generator):
        CHECK_GENERATORS[name] = fn
        return fn

    return deco


def derive_rng(seed: int, name: str, trial: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{trial}")


def _dim(cfg: SuiteConfig, default: int) -> int:
    return cfg.dim if cfg.dim is not None else default


def _grid(payload: dict) -> tuple[Fraction, ...]:
    coords = payload.get("grid")
    if coords is None:
        return DEFAULT_GRID_COORDS
    return tuple(rational_from_str(c) for c in coords)


def _with_grid(payload: dict, cfg: SuiteConfig) -> dict:
    """The payload, carrying cfg's grid when it is not the default one."""
    if tuple(cfg.grid_coords) != DEFAULT_GRID:
        payload["grid"] = list(cfg.grid_coords)
    return payload


# ---------------------------------------------------------------------------
# exterior suite
# ---------------------------------------------------------------------------


@generator("exterior.d_squared")
def _gen_d_squared(rng, cfg):
    n = _dim(cfg, 4)
    chart = Chart(n)
    deg = rng.randint(0, min(cfg.max_form_degree, n))
    return {"form": to_json(random_form(rng, chart, deg, cfg.max_coef_degree))}


@executor("exterior.d_squared")
def _run_d_squared(payload):
    a = form_from_json(payload["form"])
    return de_rham(de_rham(a)).is_zero(), "d(d(alpha)) == 0"


@generator("exterior.leibniz")
def _gen_leibniz(rng, cfg):
    n = _dim(cfg, 4)
    chart = Chart(n)
    p = rng.randint(0, min(cfg.max_form_degree, n))
    q = rng.randint(0, min(cfg.max_form_degree, n))
    return {
        "a": to_json(random_form(rng, chart, p, cfg.max_coef_degree)),
        "b": to_json(random_form(rng, chart, q, cfg.max_coef_degree)),
        "p": p,
    }


@executor("exterior.leibniz")
def _run_leibniz(payload):
    a = form_from_json(payload["a"])
    b = form_from_json(payload["b"])
    p = payload["p"]
    lhs = de_rham(wedge(a, b))
    rhs = wedge(de_rham(a), b) + wedge(a, de_rham(b)).scale((-1) ** p)
    return lhs == rhs, "d(a^b) == da^b + (-1)^|a| a^db"


@generator("exterior.wedge_algebra")
def _gen_wedge_algebra(rng, cfg):
    n = _dim(cfg, 4)
    chart = Chart(n)
    degs = [rng.randint(0, min(2, n)) for _ in range(3)]
    return {
        "forms": [to_json(random_form(rng, chart, d, cfg.max_coef_degree)) for d in degs],
        "degs": degs,
    }


@executor("exterior.wedge_algebra")
def _run_wedge_algebra(payload):
    a, b, c = [form_from_json(f) for f in payload["forms"]]
    p, q, _ = payload["degs"]
    assoc = wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
    comm = wedge(a, b) == wedge(b, a).scale((-1) ** (p * q))
    return assoc and comm, "associativity and graded commutativity"


@generator("exterior.schouten_symmetry")
def _gen_schouten_symmetry(rng, cfg):
    n = _dim(cfg, 4)
    chart = Chart(n)
    p = rng.randint(0, min(3, n))
    q = rng.randint(0, min(3, n))
    return {
        "p_field": to_json(random_field(rng, chart, p, cfg.max_coef_degree)),
        "q_field": to_json(random_field(rng, chart, q, cfg.max_coef_degree)),
        "p": p,
        "q": q,
    }


@executor("exterior.schouten_symmetry")
def _run_schouten_symmetry(payload):
    P = field_from_json(payload["p_field"])
    Q = field_from_json(payload["q_field"])
    p, q = payload["p"], payload["q"]
    lhs = schouten(P, Q)
    rhs = schouten(Q, P).scale((-1) ** ((p - 1) * (q - 1)))
    return (lhs + rhs).is_zero(), "[P,Q] + (-1)^((p-1)(q-1)) [Q,P] == 0"


@generator("exterior.operator_identity")
def _gen_operator_identity(rng, cfg):
    n = _dim(cfg, 4)
    chart = Chart(n)
    p = rng.randint(1, 2)
    q = rng.randint(1, 2)
    ad = rng.randint(min(p + q - 1, n), n)
    return {
        "p_field": to_json(random_field(rng, chart, p, cfg.max_coef_degree)),
        "q_field": to_json(random_field(rng, chart, q, cfg.max_coef_degree)),
        "alpha": to_json(random_form(rng, chart, ad, cfg.max_coef_degree)),
        "p": p,
        "q": q,
    }


@executor("exterior.operator_identity")
def _run_operator_identity(payload):
    P = field_from_json(payload["p_field"])
    Q = field_from_json(payload["q_field"])
    alpha = form_from_json(payload["alpha"])
    p, q = payload["p"], payload["q"]

    def lie_gc(W, w_deg, a):
        t = contract(W, de_rham(a))
        u = de_rham(contract(W, a))
        return t - u if w_deg % 2 == 0 else t + u

    lhs = contract(schouten(P, Q), alpha)
    t = lie_gc(P, p, contract(Q, alpha))
    u = contract(Q, lie_gc(P, p, alpha))
    rhs = t - u.scale((-1) ** (q * (p - 1)))
    return lhs == rhs, "iota_[P,Q] == [[iota_P, d], iota_Q]"


@generator("exterior.evaluate_homomorphism")
def _gen_evaluate_hom(rng, cfg):
    n = _dim(cfg, 4)
    chart = Chart(n)
    p = rng.randint(0, min(2, n))
    q = rng.randint(0, min(2, n))
    return {
        "a": to_json(random_form(rng, chart, p, cfg.max_coef_degree)),
        "b": to_json(random_form(rng, chart, q, cfg.max_coef_degree)),
        "v": to_json(random_field(rng, chart, 1, cfg.max_coef_degree)),
        "point": [str(x) for x in random_point(rng, n, bound=6)],
    }


@executor("exterior.evaluate_homomorphism")
def _run_evaluate_hom(payload):
    a = form_from_json(payload["a"])
    b = form_from_json(payload["b"])
    v = field_from_json(payload["v"])
    pt = [rational_from_str(x) for x in payload["point"]]
    ok_wedge = evaluate(wedge(a, b), pt) == wedge(evaluate(a, pt), evaluate(b, pt))
    ok_contract = evaluate(contract(v, a), pt) == contract(
        evaluate(v, pt), evaluate(a, pt)
    )
    return ok_wedge and ok_contract, "evaluation commutes with wedge and contraction"


@generator("exterior.float_gradient")
def _gen_float_gradient(rng, cfg):
    n = _dim(cfg, 4)
    chart = Chart(n)
    from .randgen import random_scalar

    while True:
        s = random_scalar(rng, n, min(cfg.max_coef_degree, 3), polynomial=False)
        pt = random_point(rng, n, bound=4)
        try:
            s.evaluate(pt)
        except ZeroDivisionError:
            continue
        if not s.is_zero():
            break
    return {
        "form": to_json(DifferentialForm.make(chart, {(): s})),
        "point": [str(x) for x in pt],
    }


@executor("exterior.float_gradient")
def _run_float_gradient(payload):
    f = form_from_json(payload["form"])
    pt = [rational_from_str(x) for x in payload["point"]]
    n = f.chart.dim
    grad = de_rham(f)
    h = Fraction(1, 100000)
    coef = f.scalar_part()
    worst = 0.0
    for i in range(1, n + 1):
        exact = float(grad.coefficient((i,)).evaluate(pt))
        shifted = list(pt)

        def at(x):
            shifted[i - 1] = x
            return coef.evaluate(shifted)

        try:
            d1 = float(at(pt[i - 1] + h) - at(pt[i - 1] - h)) / (2 * float(h))
            d2 = float(at(pt[i - 1] + h / 2) - at(pt[i - 1] - h / 2)) / float(h)
        except ZeroDivisionError:
            raise SkipCheck("pole near evaluation point")
        richardson = (4 * d2 - d1) / 3
        err = abs(richardson - exact) / (1 + abs(exact))
        worst = max(worst, err)
    return worst <= 1e-9, f"max relative error {worst:.2e} <= 1e-9"


@executor("exterior.worked_examples")
def _run_ext_worked(payload):
    c2 = Chart(2)
    c3 = Chart(3)
    c4 = Chart(4)
    checks = []
    checks.append(wedge(dx(c2, 1), dx(c2, 2)) == dx(c2, 1, 2))
    checks.append(wedge(dx(c2, 1), dx(c2, 1)).is_zero())
    a = DifferentialForm.make(c3, {(1,): "x1"})
    checks.append(wedge(a, dx(c3, 2, 3)) == DifferentialForm.make(c3, {(1, 2, 3): "x1"}))
    checks.append(de_rham(DifferentialForm.make(c2, {(2,): "x1"})) == dx(c2, 1, 2))
    checks.append(de_rham(dx(c2, 1, 2)).is_zero())
    q = DifferentialForm.make(c2, {(2,): "(1)/(x1^2 + 1)"})
    expect = DifferentialForm.make(c2, {(1, 2): "(-2*x1)/(x1^4 + 2*x1^2 + 1)"})
    checks.append(de_rham(q) == expect)
    checks.append(contract(partial(c2, 1), dx(c2, 1, 2)) == dx(c2, 2))
    P = MultivectorField.make(c2, {(1, 2): "x1"})
    checks.append(
        contract(P, dx(c2, 1, 2)) == DifferentialForm.make(c2, {(): "-x1"})
    )
    checks.append(contract(partial(c3, 1, 2), dx(c3, 3)).is_zero())
    from .exterior import lie_derivative

    checks.append(lie_derivative(P, dx(c2, 1, 2)) == dx(c2, 1))
    checks.append(
        lie_derivative(partial(c2, 1), DifferentialForm.make(c2, {(2,): "x1"}))
        == dx(c2, 2)
    )
    Zc = MultivectorField.make(c4, {(1, 2): 1, (3, 4): "x1"})
    zz = schouten(Zc, Zc)
    checks.append(zz == MultivectorField.make(c4, {(2, 3, 4): -2}))
    Zp = MultivectorField.make(c3, {(1, 2): 1, (1, 3): "x2"})
    checks.append(schouten(Zp, Zp).is_zero())
    from .exterior import multi_sharp, pairing as det_pairing

    checks.append(
        multi_sharp([dx(c2, 1), dx(c2, 2)], partial(c2, 1, 2))
        == DifferentialForm.make(c2, {(): 1})
    )
    checks.append(det_pairing(partial(c2, 1, 2), dx(c2, 1, 2)) == Scalar.one(2))
    # pole errors
    from .rational import PoleError

    try:
        evaluate(DifferentialForm.make(c2, {(2,): "(1)/(1 - x1)"}), [1, 0])
        checks.append(False)
    except PoleError:
        checks.append(True)
    bad = [i for i, ok in enumerate(checks) if not ok]
    return not bad, f"{len(checks)} worked examples" + (f"; failing: {bad}" if bad else "")


# ---------------------------------------------------------------------------
# koszul suite
# ---------------------------------------------------------------------------


def _payload_ctx(payload) -> KoszulContext:
    return KoszulContext(field_from_json(payload["z"]))


@executor("koszul.worked_r2")
def _run_worked_r2(payload):
    c2 = Chart(2)
    ctx = KoszulContext(MultivectorField.make(c2, {(1, 2): "x1"}))
    got = koszul_bracket(dx(c2, 1), dx(c2, 2), ctx)
    alt = koszul_bracket_oneform(dx(c2, 1), dx(c2, 2), ctx)
    ok = got == dx(c2, 1) and alt == dx(c2, 1)
    return ok, "[dx1, dx2]_{x1 d1^d2} == dx1 via both formulas"


@generator("koszul.oneform_consistency")
def _gen_oneform(rng, cfg):
    n = _dim(cfg, 3)
    chart = Chart(n)
    return {
        "z": to_json(random_field(rng, chart, 2, cfg.max_coef_degree, density=0.8)),
        "a": to_json(random_form(rng, chart, 1, cfg.max_coef_degree, density=0.8)),
        "b": to_json(random_form(rng, chart, 1, cfg.max_coef_degree, density=0.8)),
    }


@executor("koszul.oneform_consistency")
def _run_oneform(payload):
    ctx = _payload_ctx(payload)
    a = form_from_json(payload["a"])
    b = form_from_json(payload["b"])
    return (
        koszul_bracket(a, b, ctx) == koszul_bracket_oneform(a, b, ctx),
        "definition formula == 1-form formula",
    )


@generator("koszul.lambda_symmetry")
def _gen_lambda_sym(rng, cfg):
    n = _dim(cfg, 4)
    chart = Chart(n)
    degs = [rng.randint(0, min(cfg.max_form_degree, n)) for _ in range(3)]
    return {
        "z": to_json(random_field(rng, chart, 2, cfg.max_coef_degree)),
        "forms": [to_json(random_form(rng, chart, d, cfg.max_coef_degree)) for d in degs],
        "degs": degs,
    }


@executor("koszul.lambda_symmetry")
def _run_lambda_sym(payload):
    ctx = _payload_ctx(payload)
    xs = [ShiftedForm(form_from_json(f)) for f in payload["forms"]]
    d = [x.shifted_degree for x in xs]
    s01 = (-1) ** (d[0] * d[1])
    ok2 = lam(2, [xs[0], xs[1]], ctx).form == lam(2, [xs[1], xs[0]], ctx).form.scale(s01)
    ok3a = lam(3, xs, ctx).form == lam(
        3, [xs[1], xs[0], xs[2]], ctx
    ).form.scale(s01)
    s12 = (-1) ** (d[1] * d[2])
    ok3b = lam(3, xs, ctx).form == lam(
        3, [xs[0], xs[2], xs[1]], ctx
    ).form.scale(s12)
    return ok2 and ok3a and ok3b, "lambda_2, lambda_3 graded-symmetric in shifted degrees"


@generator("koszul.lambda2_expressions")
def _gen_lambda2_expr(rng, cfg):
    n = _dim(cfg, 4)
    chart = Chart(n)
    p = rng.randint(0, min(cfg.max_form_degree, n))
    q = rng.randint(0, min(cfg.max_form_degree, n))
    return {
        "z": to_json(random_field(rng, chart, 2, cfg.max_coef_degree)),
        "a": to_json(random_form(rng, chart, p, cfg.max_coef_degree)),
        "b": to_json(random_form(rng, chart, q, cfg.max_coef_degree)),
        "p": p,
    }


@executor("koszul.lambda2_expressions")
def _run_lambda2_expr(payload):
    ctx = _payload_ctx(payload)
    a = form_from_json(payload["a"])
    b = form_from_json(payload["b"])
    p = payload["p"]
    via_bracket = lam(2, [ShiftedForm(a), ShiftedForm(b)], ctx).form
    expansion = -(
        lie_by_bivector(ctx, wedge(a, b))
        - wedge(lie_by_bivector(ctx, a), b)
        - wedge(a, lie_by_bivector(ctx, b)).scale((-1) ** p)
    )
    return via_bracket == expansion, "both lambda_2 expressions agree"


@generator("koszul.mu_relations")
def _gen_mu_relations(rng, cfg):
    n = _dim(cfg, 4)
    chart = Chart(n)
    degs = [rng.randint(0, min(cfg.max_form_degree, n)) for _ in range(3)]
    return {
        "z": to_json(random_field(rng, chart, 2, cfg.max_coef_degree)),
        "forms": [to_json(random_form(rng, chart, d, cfg.max_coef_degree)) for d in degs],
    }


@executor("koszul.mu_relations")
def _run_mu_relations(payload):
    ctx = _payload_ctx(payload)
    xs = [ShiftedForm(form_from_json(f)) for f in payload["forms"]]
    psi = psi_from_dorfman(ctx)
    ok_psi = psi == -ctx.half_schouten
    ok1 = mu(1, xs[:1], ctx).form == lam(1, xs[:1], ctx).form
    ok2 = mu(2, xs[:2], ctx).form == -lam(2, xs[:2], ctx).form
    ok3 = mu(3, xs, ctx, psi=psi).form == lam(3, xs, ctx).form
    return (
        ok_psi and ok1 and ok2 and ok3,
        "psi == -[Z,Z]/2; mu1 == lambda1; mu2 == -lambda2; mu3 == lambda3",
    )


@generator("koszul.intertwiner")
def _gen_intertwiner(rng, cfg):
    return _gen_mu_relations(rng, cfg)


@executor("koszul.intertwiner")
def _run_intertwiner(payload):
    ctx = _payload_ctx(payload)
    xs = [ShiftedForm(form_from_json(f)) for f in payload["forms"]]
    ok = True
    for k in (1, 2, 3):
        args = xs[:k]
        ok = ok and mu(k, [-x for x in args], ctx).form == -lam(k, args, ctx).form
    return ok, "-id intertwines (mu_k) and (lambda_k) at arities 1..3"


@generator("koszul.poisson_case")
def _gen_poisson_case(rng, cfg):
    n = _dim(cfg, 3)
    chart = Chart(n)
    if rng.random() < 0.5 or n < 3:
        # constant bivector fields are Poisson
        Z = random_field(rng, chart, 2, 0, density=0.8)
    else:
        # d_f ^ Y with Y's coefficients independent of x_f, so [d_f, Y] = 0
        f = rng.randint(1, n)
        others = [i for i in range(1, n + 1) if i != f]
        terms = {}
        for i in others:
            if rng.random() < 0.7:
                v = rng.choice(others)
                terms[(i,)] = f"x{v}" if rng.random() < 0.6 else "1"
        Y = MultivectorField.make(chart, terms)
        Z = wedge(partial(chart, f), Y)
    degs = [rng.randint(1, min(3, n)) for _ in range(3)]
    return {
        "z": to_json(Z),
        "forms": [to_json(random_form(rng, chart, d, cfg.max_coef_degree)) for d in degs],
    }


@executor("koszul.poisson_case")
def _run_poisson_case(payload):
    ctx = _payload_ctx(payload)
    if not ctx.is_poisson():
        raise SkipCheck("generated Z is not Poisson")
    xs = [ShiftedForm(form_from_json(f)) for f in payload["forms"]]
    ok3 = lam(3, xs, ctx).form.is_zero()
    ok_jac = jacobi_residual(xs, ctx).is_zero()
    return ok3 and ok_jac, "lambda_3 == 0 and dg Jacobi holds for Poisson Z"


# ---------------------------------------------------------------------------
# linf-jacobi suite
# ---------------------------------------------------------------------------


@generator("linfty.jacobi")
def _gen_jacobi(rng, cfg):
    n = _dim(cfg, 4)
    chart = Chart(n)
    arity = 1 + (rng.randint(0, 4) % 5)
    if n >= 4 and rng.random() < 0.5:
        # the canonical non-Poisson draw, guaranteeing [Z, Z] != 0 coverage
        Z = MultivectorField.make(chart, {(1, 2): 1, (3, 4): "x1"})
    else:
        Z = random_field(rng, chart, 2, cfg.max_coef_degree)
    degs = [rng.randint(1, min(cfg.max_form_degree, n)) for _ in range(arity)]
    return {
        "z": to_json(Z),
        "inputs": [to_json(random_form(rng, chart, d, cfg.max_coef_degree)) for d in degs],
        "arity": arity,
    }


@executor("linfty.jacobi")
def _run_jacobi(payload):
    ctx = _payload_ctx(payload)
    xs = [ShiftedForm(form_from_json(f)) for f in payload["inputs"]]
    res = jacobi_residual(xs, ctx)
    nonpoisson = "" if ctx.is_poisson() else " ([Z,Z] != 0)"
    ok = res.is_zero()
    if ok:
        return ok, f"arity-{payload['arity']} Jacobi identity{nonpoisson}"
    return ok, f"arity-{payload['arity']} Jacobi identity{nonpoisson}", to_json(res)


# ---------------------------------------------------------------------------
# linalg suite
# ---------------------------------------------------------------------------


@executor("linalg.worked_examples")
def _run_linalg_worked(payload):
    checks = []
    # the n=2 family F(t e1*^e2*) = t/(1-t) e1*^e2* for Z = e1^e2
    Z2 = Bivector.from_pairs(2, 0, {(0, 1): 1})
    for t in (Fraction(1, 2), Fraction(2), Fraction(-1)):
        beta = SkewBilinear.from_pairs(2, 0, {(0, 1): t})
        got = dirac.F(beta, Z2)
        want = SkewBilinear.from_pairs(2, 0, {(0, 1): t / (1 - t)})
        checks.append(got == want)
    boundary = SkewBilinear.from_pairs(2, 0, {(0, 1): 1})
    checks.append(not in_I_Z(boundary, Z2))
    try:
        dirac.F(boundary, Z2)
        checks.append(False)
    except NotInIZError:
        checks.append(True)
    checks.append(dirac.F(SkewBilinear.zero(2, 0), Z2) == SkewBilinear.zero(2, 0))
    beta = SkewBilinear.from_pairs(2, 0, {(0, 1): Fraction(3, 7)})
    checks.append(dirac.F(beta, Bivector.zero(2, 0)) == beta)
    # n=4 worked kernel example over Q(s)
    s = Scalar.variable(1, 1)
    eta = SkewBilinear.from_pairs(4, 1, {(0, 1): 1})
    G = dirac.standard_basis_subspace(4, 1, [0, 1])
    beta4 = SkewBilinear.from_pairs(4, 1, {(2, 0): s})
    expd = dirac_exp(eta, G, beta4)
    r, ker = rank_and_kernel(expd)
    zero, one = Scalar.zero(1), Scalar.one(1)
    want_ker = Subspace.from_spanning(
        4, [(zero, s, one, zero), (zero, zero, zero, one)]
    )
    checks.append(r == 2 and ker == want_ker)
    # non-horizontal breakout
    beta_nh = SkewBilinear.from_pairs(4, 1, {(2, 3): 1})
    r2, _ = rank_and_kernel(dirac_exp(eta, G, beta_nh))
    checks.append(r2 == 4)
    # Z from a skewed complement: G' = span(e1, e2 + e3)
    rows = [
        (one, zero, zero, zero),
        (zero, one, one, zero),
    ]
    Gp = Subspace.from_spanning(4, rows)
    Zp = Z_from_eta_G(eta, Gp)
    want = Bivector.from_pairs(4, 1, {(0, 1): 1, (0, 2): 1})
    checks.append(Zp == want)
    # rank/kernel worked values
    zero0 = SkewBilinear.zero(4, 0)
    r0, k0 = rank_and_kernel(zero0)
    checks.append(r0 == 0 and k0.dim == 4)
    e12 = SkewBilinear.from_pairs(4, 0, {(0, 1): 1})
    r1, k1 = rank_and_kernel(e12)
    checks.append(r1 == 2 and k1 == dirac.standard_basis_subspace(4, 0, [2, 3]))
    full = SkewBilinear.from_pairs(4, 0, {(0, 1): 1, (2, 3): 1})
    r2_, k2 = rank_and_kernel(full)
    checks.append(r2_ == 4 and k2.dim == 0)
    # pairing basics in V + V* (n = 2)
    z0 = Scalar.zero(0)
    o0 = Scalar.one(0)
    e1 = (o0, z0, z0, z0)
    e2 = (z0, o0, z0, z0)
    e1s = (z0, z0, o0, z0)
    checks.append(pairing(e1, e1s) == o0)
    checks.append(pairing(e1, e2).is_zero())
    v = tuple(Scalar.const(0, c) for c in (1, 2, 3, 4))
    checks.append(pairing(v, v) == Scalar.const(0, 2 * (1 * 3 + 2 * 4)))
    checks.append(is_lagrangian(v_subspace(2, 0)) and is_lagrangian(v_star_subspace(2, 0)))
    mixed = Subspace.from_spanning(4, [e1, e1s])
    checks.append(not is_lagrangian(mixed))
    bad = [i for i, ok in enumerate(checks) if not ok]
    return not bad, f"{len(checks)} worked examples" + (f"; failing: {bad}" if bad else "")


@generator("linalg.f_properties")
def _gen_f_properties(rng, cfg):
    n = _dim(cfg, 4)
    Z = random_skew(rng, n, cls=Bivector)
    beta = random_in_IZ(rng, Z)
    return {"z": skew_to_json(Z), "beta": skew_to_json(beta)}


@executor("linalg.f_properties")
def _run_f_properties(payload):
    Z = skew_from_json(payload["z"], Bivector)
    beta = skew_from_json(payload["beta"])
    fb = dirac.F(beta, Z)
    ok_skew = linalg.is_skew(fb.mat)
    negZ = Bivector(linalg.mat_neg(Z.mat), check=False)
    ok_inverse = dirac.F(fb, negZ) == beta
    ok_graph = graph_of_form(fb) == phi_Z(beta, Z)
    vstar = v_star_subspace(Z.n, Z.nvars)
    ok_transverse = phi_Z(beta, Z).intersection(vstar).dim == 0
    return (
        ok_skew and ok_inverse and ok_graph and ok_transverse,
        "F skew; F(.,-Z) o F(.,Z) = id; graph(F) == Phi_Z; transverse to V*",
    )


@generator("linalg.tau_pairing")
def _gen_tau_pairing(rng, cfg):
    n = _dim(cfg, 4)
    beta = random_skew(rng, n)
    Z = random_skew(rng, n, cls=Bivector)
    u = [str(Fraction(rng.randint(-9, 9))) for _ in range(2 * n)]
    w = [str(Fraction(rng.randint(-9, 9))) for _ in range(2 * n)]
    return {"beta": skew_to_json(beta), "z": skew_to_json(Z), "u": u, "w": w}


@executor("linalg.tau_pairing")
def _run_tau_pairing(payload):
    beta = skew_from_json(payload["beta"])
    Z = skew_from_json(payload["z"], Bivector)
    u = tuple(scalar_from_str(str(x), 0) for x in payload["u"])
    w = tuple(scalar_from_str(str(x), 0) for x in payload["w"])
    ok = pairing(tau_form(beta, u), tau_form(beta, w)) == pairing(u, w)
    ok = ok and pairing(tau_bivector(Z, u), tau_bivector(Z, w)) == pairing(u, w)
    ok = ok and tuple(tau_form(-beta, tau_form(beta, u))) == u
    # tau_form(V) = graph(beta); tau_Z(V*) = graph(Z)
    n = beta.n
    ok = ok and tau_form(beta, v_subspace(n, 0)) == graph_of_form(beta)
    ok = ok and tau_bivector(Z, v_star_subspace(n, 0)) == graph_of_bivector(Z)
    return ok, "tau transforms preserve pairing; graphs as expected"


@generator("linalg.lagrangian_graph")
def _gen_lagrangian_graph(rng, cfg):
    n = _dim(cfg, 4)
    k = 2 * rng.randint(1, n // 2)
    eta = random_rank_k_skew(rng, n, k)
    G = random_complement(rng, eta)
    eps = random_skew(rng, n)
    return {
        "eta": skew_to_json(eta),
        "G": subspace_to_json(G),
        "eps": skew_to_json(eps),
    }


@executor("linalg.lagrangian_graph")
def _run_lagrangian_graph(payload):
    eta = skew_from_json(payload["eta"])
    G = subspace_from_json(payload["G"])
    eps = skew_from_json(payload["eps"])
    n = eta.n
    _, K = rank_and_kernel(eta)
    L = graph_of_form(eta)
    R = dirac.g_plus_kstar(G, K)
    out = lagrangian_graph(L, R, eps.values())
    ok = is_lagrangian(out) and out.intersection(R).dim == 0
    # eps = 0 reproduces L; Phi_0 specializes to the classical graph
    ok = ok and lagrangian_graph(L, R, SkewBilinear.zero(n, eta.nvars).values()) == L
    ok = ok and lagrangian_graph(
        v_subspace(n, eta.nvars), v_star_subspace(n, eta.nvars), eps.values()
    ) == graph_of_form(eps)
    return ok, "lagrangian_graph outputs Lagrangian, transverse to R; specializations"


@generator("linalg.theorem_rank")
def _gen_theorem_rank(rng, cfg):
    n = _dim(cfg, 4)
    k = 2 * rng.randint(1, max(1, (n - 1) // 2))  # keep a nonzero kernel
    eta = random_rank_k_skew(rng, n, k)
    _, K = rank_and_kernel(eta)
    G = random_complement(rng, eta, K)
    Z = Z_from_eta_G(eta, G)
    beta_h = shrink_into_IZ(Z, random_horizontal_skew(rng, K, G))
    beta_h2 = shrink_into_IZ(Z, random_horizontal_skew(rng, K, G))
    # force a nonzero Lambda^2 K* block
    kb = K.basis
    beta_nh = None
    if K.dim >= 2:
        pert = [[Scalar.zero(0) for _ in range(n)] for _ in range(n)]
        a, b = kb[0], kb[1]
        for i in range(n):
            for j in range(n):
                pert[i][j] = a[j] * b[i] - b[j] * a[i]
        beta_nh = shrink_into_IZ(Z, SkewBilinear(linalg.mat(pert)), base=beta_h)
    out = {
        "n": n,
        "k": k,
        "eta": skew_to_json(eta),
        "G": subspace_to_json(G),
        "beta_h": skew_to_json(beta_h),
        "beta_h2": skew_to_json(beta_h2),
    }
    if beta_nh is not None:
        out["beta_nh"] = skew_to_json(beta_nh)
    return out


@executor("linalg.theorem_rank")
def _run_theorem_rank(payload):
    eta = skew_from_json(payload["eta"])
    G = subspace_from_json(payload["G"])
    beta = skew_from_json(payload["beta_h"])
    beta2 = skew_from_json(payload["beta_h2"])
    k = payload["k"]
    n = payload["n"]
    _, K = rank_and_kernel(eta)
    Z = Z_from_eta_G(eta, G)
    expd = eta + dirac.F(beta, Z)
    r, ker = rank_and_kernel(expd)
    ok_rank = r == k
    # kernel is the graph of Z# mu#: K -> G, the rows k + Z# beta# k
    images = linalg.mat_mul(K.basis, linalg.transpose(linalg.mat_mul(Z.mat, beta.mat)))
    ok_kernel = ker == Subspace.from_spanning(n, linalg.mat_add(K.basis, images))
    # restriction to G equals (eta + F(sigma))|_G
    dec = decompose_horizontal(beta, K, G)
    sigma_amb = dirac.HorizontalDecomposition(
        K, G, linalg.zeros(K.dim, G.dim, eta.nvars), dec.sigma
    ).reassemble()
    expected = eta + dirac.F(sigma_amb, Z)
    ok_restrict = expd.gram(G.basis, G.basis) == expected.gram(G.basis, G.basis)
    # kernel transverse to G
    ok_transverse = ker.sum_(G).dim == n
    # injectivity on samples
    exp2 = eta + dirac.F(beta2, Z)
    ok_inj = (beta == beta2) == (expd == exp2)
    # non-horizontal inputs break the rank
    ok_breakout = True
    if "beta_nh" in payload:
        beta_nh = skew_from_json(payload["beta_nh"])
        r_nh, _ = rank_and_kernel(eta + dirac.F(beta_nh, Z))
        ok_breakout = r_nh != k
    ok = ok_rank and ok_kernel and ok_restrict and ok_transverse and ok_inj and ok_breakout
    detail = (
        f"rank {r}=={k}; kernel graph formula; G-restriction; transversality; "
        f"injectivity; breakout"
    )
    return ok, detail


@generator("linalg.lemma_battery")
def _gen_lemma_battery(rng, cfg):
    n = _dim(cfg, 4)
    k = 2 * rng.randint(1, max(1, (n - 1) // 2))
    eta = random_rank_k_skew(rng, n, k)
    G = random_complement(rng, eta)
    Z = Z_from_eta_G(eta, G)
    beta = random_in_IZ(rng, Z)
    return {
        "eta": skew_to_json(eta),
        "G": subspace_to_json(G),
        "beta": skew_to_json(beta),
    }


@executor("linalg.lemma_battery")
def _run_lemma_battery(payload):
    eta = skew_from_json(payload["eta"])
    G = subspace_from_json(payload["G"]) if "G" in payload else default_complement(eta)
    beta = skew_from_json(payload["beta"])
    results = verify_linear_lemmas(eta, G, beta)
    bad = [name for name, ok in results.items() if not ok]
    return not bad, "lemmas: " + ", ".join(results) + (f"; failing: {bad}" if bad else "")


# ---------------------------------------------------------------------------
# mc suite
# ---------------------------------------------------------------------------


@functools.cache
def _mc_bundle_cached() -> list[dict]:
    c2, c4, c5 = Chart(2), Chart(4), Chart(5)
    z_const = MultivectorField.make(c4, {(1, 2): 1})
    z_np = MultivectorField.make(c4, {(1, 2): 1, (3, 4): "x1"})
    z2 = MultivectorField.make(c2, {(1, 2): 1})
    z5 = MultivectorField.make(
        c5, {(1, 2): 1, (3, 4): 1, (3, 5): "x1"}
    )
    lam3_active = DifferentialForm.make(
        c5, {(1, 2): 1, (3, 5): 1, (2, 4): 1}
    ).scale(Fraction(1, 2))
    items = [
        (z_const, DifferentialForm.make(c4, {(1, 3): 1}), True),
        (z_const, DifferentialForm.make(c4, {(1, 3): "x4"}), False),
        (z2, DifferentialForm.make(c2, {(1, 2): "x1"}), True),
        (z_np, DifferentialForm.make(c4, {(1, 2): Fraction(1, 2)}), True),
        (z_np, DifferentialForm.make(c4, {(1, 3): 1, (2, 4): "x2"}), False),
        (z5, lam3_active, False),
    ]
    return [
        {"z": to_json(z), "beta": to_json(b), "expect_mc": mc}
        for z, b, mc in items
    ]


@generator("mc.equivalence")
def _gen_mc_equivalence(rng, cfg):
    bundle = _mc_bundle_cached()
    idx = rng.randint(0, 10 ** 9)
    if idx % max(len(bundle), 1) < len(bundle) and rng.random() < 0.75:
        return _with_grid(dict(bundle[idx % len(bundle)]), cfg)
    n = _dim(cfg, 4)
    chart = Chart(n)
    Z = random_field(rng, chart, 2, 1, density=0.5, bound=3)
    ctx = KoszulContext(Z)
    while True:
        beta = random_form(rng, chart, 2, 1, density=0.5, bound=3)
        B = form_to_skew(beta)
        if not i_z_determinant(B, ctx.bivector).is_zero():
            break
    return {"z": to_json(Z), "beta": to_json(beta), "expect_mc": None,
            "grid": list(cfg.grid_coords)}


@executor("mc.equivalence")
def _run_mc_equivalence(payload):
    ctx = _payload_ctx(payload)
    beta = form_from_json(payload["beta"])
    rep = mc_equivalence_report(beta, ctx, _grid(payload))
    ok = rep["equivalent"]
    if payload.get("expect_mc") is not None:
        ok = ok and rep["mc"] == payload["expect_mc"]
    detail = (
        f"mode={rep['mode']}; mc={rep['mc']}; closed={rep['closed']}"
        + (f"; points={rep['points_checked']}" if rep["points_checked"] else "")
    )
    if ok:
        return ok, detail
    return ok, detail, to_json(mc_residual(beta, ctx))


@executor("mc.cross_module")
def _run_mc_cross(payload):
    # the n=2 family with constant t, matched against the linear-algebra route
    c2 = Chart(2)
    ctx = KoszulContext(MultivectorField.make(c2, {(1, 2): 1}))
    Z2 = Bivector.from_pairs(2, 0, {(0, 1): 1})
    ok = True
    for t in (Fraction(1, 2), Fraction(-3), Fraction(2, 7)):
        beta_form = DifferentialForm.make(c2, {(1, 2): t})
        sym = F_symbolic_form(beta_form, ctx)
        want_val = t / (1 - t)
        ok = ok and sym == DifferentialForm.make(c2, {(1, 2): want_val})
        lin = dirac.F(SkewBilinear.from_pairs(2, 0, {(0, 1): t}), Z2)
        ok = ok and lin.value(0, 1).constant_value() == want_val
    return ok, "F_symbolic matches the exact linear-algebra F on the 2x2 family"


# ---------------------------------------------------------------------------
# presymplectic suite
# ---------------------------------------------------------------------------


def family_f1() -> dict:
    c4 = Chart(4)
    eta = DifferentialForm.make(c4, {(1, 2): 1})
    return {"chart": 4, "eta": to_json(eta)}


def family_f2() -> dict:
    c5 = Chart(5)
    eta = DifferentialForm.make(c5, {(1, 2): 1, (3, 4): 1})
    G = [
        partial(c5, 1),
        partial(c5, 2),
        partial(c5, 3),
        MultivectorField.make(c5, {(4,): 1, (5,): "x1"}),
    ]
    return {"chart": 5, "eta": to_json(eta), "G": [to_json(v) for v in G]}


@functools.cache
def _deform_bundle_cached() -> list[dict]:
    c4, c5 = Chart(4), Chart(5)
    f1, f2 = family_f1(), family_f2()
    f1_betas = [
        (DifferentialForm.zero(c4), True),
        (DifferentialForm.make(c4, {(3, 1): Fraction(1, 2)}), True),
        (DifferentialForm.make(c4, {(1, 3): "x4"}), False),
        (DifferentialForm.make(c4, {(1, 2): Fraction(1, 2)}), True),
        (DifferentialForm.make(c4, {(3, 1): "x3"}), True),
        (DifferentialForm.make(c4, {(1, 2): "x3"}), False),
        (DifferentialForm.make(c4, {(4, 1): "x4^2"}), True),
    ]
    lam3_active = DifferentialForm.make(
        c5, {(1, 2): 1, (3, 5): 1, (2, 4): 1}
    ).scale(Fraction(1, 2))
    f2_betas = [
        (DifferentialForm.zero(c5), True),
        (DifferentialForm.make(c5, {(1, 2): 1, (3, 4): 1}).scale(Fraction(1, 2)), True),
        (DifferentialForm.make(c5, {(1, 2): "x5"}), False),
        (lam3_active, False),
    ]
    out = []
    for beta, mc in f1_betas:
        out.append({"instance": f1, "beta": to_json(beta), "expect_mc": mc})
    for beta, mc in f2_betas:
        out.append({"instance": f2, "beta": to_json(beta), "expect_mc": mc})
    return out


@executor("presym.certification_examples")
def _run_cert_examples(payload):
    c4, c5 = Chart(4), Chart(5)
    checks = []
    k, cert = certify_constant_rank(DifferentialForm.make(c4, {(1, 2): 1}))
    checks.append(k == 2 and cert["rule"] == "constant" and cert["witness"] == (0, 1))
    k, cert = certify_constant_rank(DifferentialForm.make(c4, {(1, 2): "x1^2 + 1"}))
    checks.append(k == 2 and cert["rule"] == "definite-pattern")
    try:
        certify_constant_rank(DifferentialForm.make(c4, {(1, 2): "x1"}))
        checks.append(False)
    except CannotCertifyError:
        checks.append(True)
    k, _ = certify_constant_rank(
        DifferentialForm.make(c5, {(1, 2): 1, (3, 4): 1, (1, 3): "x1"})
    )
    checks.append(k == 4)
    k, _ = certify_constant_rank(DifferentialForm.zero(c4))
    checks.append(k == 0)
    bad = [i for i, ok in enumerate(checks) if not ok]
    return not bad, f"{len(checks)} certification examples" + (
        f"; failing: {bad}" if bad else ""
    )


@executor("presym.kernel_examples")
def _run_kernel_examples(payload):
    c4, c5 = Chart(4), Chart(5)
    checks = []
    K = kernel_distribution(DifferentialForm.make(c4, {(1, 2): 1}))
    checks.append(
        [s for s in K.sections] == [partial(c4, 3), partial(c4, 4)]
    )
    K = kernel_distribution(DifferentialForm.make(c5, {(1, 2): 1, (3, 4): 1}))
    checks.append(list(K.sections) == [partial(c5, 5)])
    K = kernel_distribution(
        DifferentialForm.make(c5, {(1, 2): 1, (3, 4): 1, (1, 3): "x1"})
    )
    checks.append(list(K.sections) == [partial(c5, 5)])
    # horizontality worked examples
    eta = DifferentialForm.make(c4, {(1, 2): 1})
    Kf = kernel_distribution(eta)
    checks.append(is_horizontal(DifferentialForm.make(c4, {(1, 2): 1}), Kf))
    checks.append(not is_horizontal(DifferentialForm.make(c4, {(3, 4): 1}), Kf))
    checks.append(is_horizontal(DifferentialForm.make(c4, {(3, 1): "x4"}), Kf))
    bad = [i for i, ok in enumerate(checks) if not ok]
    return not bad, f"{len(checks)} kernel/horizontality examples" + (
        f"; failing: {bad}" if bad else ""
    )


@generator("presym.family_deform")
def _gen_family_deform(rng, cfg):
    bundle = _deform_bundle_cached()
    idx = rng.randint(0, 10 ** 9)
    if rng.random() < 0.7:
        return _with_grid(dict(bundle[idx % len(bundle)]), cfg)
    n = _dim(cfg, 4)
    n = max(n, 3)
    chart = Chart(n)
    k = 2 * rng.randint(1, max(1, (n - 1) // 2))
    data = random_presymplectic_instance(
        rng, chart, k, shear_degree=rng.randint(0, 2)
    )
    instance = instance_to_json(data)
    ctx = data.context()
    for _ in range(24):
        beta = random_horizontal_form(rng, data.K, 2, max_coef_degree=1, bound=3)
        B = form_to_skew(beta)
        if not i_z_determinant(B, ctx.bivector).is_zero():
            break
    else:
        beta = DifferentialForm.zero(chart)
    return _with_grid(
        {"instance": instance, "beta": to_json(beta), "expect_mc": None}, cfg
    )


def _certified_instance(payload):
    """The chart instance of `payload`; an uncertifiable rank skips the check."""
    try:
        return instance_from_json(payload)
    except CannotCertifyError as exc:
        raise SkipCheck(f"cannot-certify: {exc}")


@executor("presym.build")
def _run_build(payload):
    data = _certified_instance(payload)
    cert = data.certificate
    return True, f"rank {data.k}; witness {cert['witness']} ({cert['rule']})"


@executor("presym.family_deform")
def _run_family_deform(payload):
    data = _certified_instance(payload["instance"])
    beta = form_from_json(payload["beta"])
    try:
        rep = deform(data, beta, _grid(payload))
    except (NotInIZError, NonHorizontalError) as exc:
        raise SkipCheck(str(exc))
    ok = rep["biconditional"] and rep["rank_k"] and rep["kernel_transverse"]
    if payload.get("expect_mc") is not None:
        ok = ok and rep["mc"] == payload["expect_mc"]
    detail = (
        f"mc={rep['mc']}; closed={rep['closed']}; rank_k={rep['rank_k']} "
        f"({rep['rank_mode']}); transverse={rep['kernel_transverse']}"
    )
    if rep["mc"]:
        return ok, detail
    return ok, detail, to_json(rep["residual"])


@executor("presym.lambda3_active")
def _run_lambda3_active(payload):
    c5 = Chart(5)
    data = instance_from_json(family_f2())
    ctx = data.context()
    beta = DifferentialForm.make(c5, {(1, 2): 1, (3, 5): 1, (2, 4): 1}).scale(
        Fraction(1, 2)
    )
    s = ShiftedForm(beta)
    l3 = lam(3, [s, s, s], ctx).form
    rep = deform(data, beta)
    ok = (not l3.is_zero()) and rep["biconditional"]
    return ok, "lambda_3 contributes a nonzero residual term; biconditional holds"


@generator("presym.preservation")
def _gen_preservation(rng, cfg):
    which = rng.random()
    if which < 0.4:
        inst = family_f1()
    elif which < 0.8:
        inst = family_f2()
    else:
        n = max(_dim(cfg, 4), 3)
        chart = Chart(n)
        k = 2 * rng.randint(1, max(1, (n - 1) // 2))
        data = random_presymplectic_instance(rng, chart, k, shear_degree=2)
        inst = instance_to_json(data)
    return {"instance": inst, "seed": rng.randint(0, 2 ** 32)}


@executor("presym.preservation")
def _run_preservation(payload):
    data = _certified_instance(payload["instance"])
    ctx = data.context()
    flags = horizontal_preservation_conditions(data.K, ctx)
    rng = random.Random(payload["seed"])
    rep = koszul_preserves_horizontal(data, rng, trials=4)
    ok = flags == (True, True) and rep["all"]
    return ok, f"conditions {flags}; preservation {rep['all']}"


@executor("presym.sect35_negative")
def _run_sect35(payload):
    c4 = Chart(4)
    ctx = KoszulContext(MultivectorField.make(c4, {(1, 2): 1}))
    # non-involutive K: flag 1 must fail and a d-witness must exist
    K1 = DistributionFrame(
        c4,
        (partial(c4, 3), MultivectorField.make(c4, {(4,): 1, (1,): "x3"})),
        (Fraction(0),) * 4,
    )
    f1, _ = horizontal_preservation_conditions(K1, ctx)
    w1 = horizontality_witness_search(K1, ctx)
    ok1 = (not f1) and w1 is not None and not is_horizontal(w1, K1)
    # involutive K with pairing violation: flag 2 must fail with a witness
    ctx2 = KoszulContext(MultivectorField.make(c4, {(1, 2): "x3"}))
    K2 = DistributionFrame(c4, (partial(c4, 3), partial(c4, 4)), (Fraction(0),) * 4)
    g1, g2 = horizontal_preservation_conditions(K2, ctx2)
    w2 = horizontality_witness_search(K2, ctx2)
    ok2 = g1 and (not g2) and w2 is not None and not is_horizontal(w2, K2)
    return ok1 and ok2, "both engineered negatives produce non-horizontal witnesses"


@generator("presym.hor_subcomplex")
def _gen_hor_subcomplex(rng, cfg):
    which = rng.random()
    inst = family_f1() if which < 0.5 else family_f2()
    return {"instance": inst, "seed": rng.randint(0, 2 ** 32)}


@executor("presym.hor_subcomplex")
def _run_hor_subcomplex(payload):
    data = _certified_instance(payload["instance"])
    rng = random.Random(payload["seed"])
    for _ in range(6):
        deg = rng.choice([1, 2, 3])
        h = random_horizontal_form(rng, data.K, deg)
        if not is_horizontal(h, data.K):
            return False, "generator produced a non-horizontal form"
        if not is_horizontal(de_rham(h), data.K):
            return False, "d left the horizontal complex"
    return True, "d preserves the horizontal subcomplex"


@generator("presym.dorfman")
def _gen_dorfman(rng, cfg):
    n = _dim(cfg, 3)
    chart = Chart(n)
    secs = []
    for _ in range(3):
        X = random_field(rng, chart, 1, 1, density=0.6, bound=4)
        a = random_form(rng, chart, 1, 1, density=0.6, bound=4)
        secs.append({"X": to_json(X), "alpha": to_json(a)})
    return {"sections": secs}


@executor("presym.dorfman")
def _run_dorfman(payload):
    secs = [
        section(field_from_json(s["X"]), form_from_json(s["alpha"]))
        for s in payload["sections"]
    ]
    s1, s2, s3 = secs
    # Dorfman worked examples and the Leibniz (Jacobi) identity
    chart = s1.chart
    ok = dorfman(section(partial(chart, 1), None), section(partial(chart, 2), None)).is_zero()
    lhs = dorfman(s1, dorfman(s2, s3))
    rhs = dorfman(dorfman(s1, s2), s3) + dorfman(s2, dorfman(s1, s3))
    ok = ok and (lhs - rhs).is_zero()
    return ok, "Dorfman Leibniz identity [[s1,[[s2,s3]]]] == [[[[s1,s2]],s3]] + [[s2,[[s1,s3]]]]"


# ---------------------------------------------------------------------------
# dirac suite
# ---------------------------------------------------------------------------


@generator("dirac.graph_closedness")
def _gen_graph_closedness(rng, cfg):
    n = min(_dim(cfg, 3), 4)
    chart = Chart(n)
    if rng.random() < 0.5:
        theta = random_form(rng, chart, 1, cfg.max_coef_degree, density=0.8)
        eta = de_rham(theta)
    else:
        eta = random_form(rng, chart, 2, cfg.max_coef_degree, density=0.8)
    return {"eta": to_json(eta)}


@executor("dirac.graph_closedness")
def _run_graph_closedness(payload):
    eta = form_from_json(payload["eta"])
    frame = graph_of_form_frame(eta)
    closed = de_rham(eta).is_zero()
    got = is_dirac_frame(frame)
    return got == closed, f"is_dirac(graph(eta)) == {closed} == d(eta)==0"


@generator("dirac.phiz_mc")
def _gen_phiz_mc(rng, cfg):
    n = min(_dim(cfg, 3), 4)
    chart = Chart(n)
    Z = random_field(rng, chart, 2, 1, density=0.7, bound=3)
    ctx = KoszulContext(Z)
    for _ in range(24):
        if rng.random() < 0.4:
            beta = de_rham(random_form(rng, chart, 1, 1, density=0.7, bound=3))
        else:
            beta = random_form(rng, chart, 2, 1, density=0.7, bound=3)
        B = form_to_skew(beta)
        det = i_z_determinant(B, ctx.bivector)
        if det.is_zero():
            continue
        try:
            if det.evaluate([Fraction(0)] * n) != 0:
                break
        except ZeroDivisionError:
            continue
    else:
        beta = DifferentialForm.zero(chart)
    return {"z": to_json(Z), "beta": to_json(beta)}


@executor("dirac.phiz_mc")
def _run_phiz_mc(payload):
    ctx = _payload_ctx(payload)
    beta = form_from_json(payload["beta"])
    frame = phi_z_frame(beta, ctx)
    try:
        got = is_dirac_frame(frame)
    except ValueError as exc:
        raise SkipCheck(str(exc))
    mc = mc_residual(beta, ctx).is_zero()
    return got == mc, f"is_dirac(Phi_Z(beta)) == {got} == MC"


# ---------------------------------------------------------------------------
# suite definitions and runners
# ---------------------------------------------------------------------------


# A check with a registered generator runs once per trial on a drawn payload;
# one without runs once on {} (its executor holds fixed worked examples).
SUITES: dict[str, list[str]] = {
    "exterior": [
        "exterior.worked_examples",
        "exterior.d_squared",
        "exterior.leibniz",
        "exterior.wedge_algebra",
        "exterior.schouten_symmetry",
        "exterior.operator_identity",
        "exterior.evaluate_homomorphism",
        "exterior.float_gradient",
    ],
    "koszul": [
        "koszul.worked_r2",
        "koszul.oneform_consistency",
        "koszul.lambda_symmetry",
        "koszul.lambda2_expressions",
        "koszul.mu_relations",
        "koszul.intertwiner",
        "koszul.poisson_case",
    ],
    "linf-jacobi": [
        "linfty.jacobi",
    ],
    "linalg": [
        "linalg.worked_examples",
        "linalg.f_properties",
        "linalg.tau_pairing",
        "linalg.lagrangian_graph",
        "linalg.theorem_rank",
        "linalg.lemma_battery",
    ],
    "mc": [
        "mc.cross_module",
        "mc.equivalence",
    ],
    "presymplectic": [
        "presym.certification_examples",
        "presym.kernel_examples",
        "presym.sect35_negative",
        "presym.lambda3_active",
        "presym.family_deform",
        "presym.preservation",
        "presym.hor_subcomplex",
        "presym.dorfman",
    ],
    "dirac": [
        "dirac.graph_closedness",
        "dirac.phiz_mc",
    ],
}
SUITES["all"] = [entry for name in
                 ("exterior", "koszul", "linf-jacobi", "linalg", "mc",
                  "presymplectic", "dirac")
                 for entry in SUITES[name]]


# What an executor raises on a payload it cannot read.
INPUT_ERRORS = (KeyError, TypeError, ValueError)


def run_check(name: str, payload: dict, input_errors=()) -> CheckOutcome:
    """Run one check.  SkipCheck gives a skipped record; any other exception
    of the executor, unless of a type in `input_errors`, a fail record that
    names it and replays it.  Callers that read the payload from a file pass
    INPUT_ERRORS, so a malformed file stays a usage error there."""
    t0 = time.perf_counter()
    witness = None
    try:
        result = CHECK_EXECUTORS[name](payload)
        ok, detail = result[0], result[1]
        if len(result) > 2:
            witness = result[2]
        status = "pass" if ok else "fail"
    except SkipCheck as exc:
        status, detail = "skipped", str(exc)
    except input_errors:
        raise
    except Exception as exc:
        status, detail = "fail", f"{type(exc).__name__}: {exc}"
    wall = (time.perf_counter() - t0) * 1000
    counterexample = None
    if status == "fail":
        counterexample = {"replay": name, "data": payload}
    return CheckOutcome(name, status, detail, counterexample, wall,
                        witness=witness)


def _suite_workload(config: SuiteConfig):
    """The ordered (name, payload-or-error) list for a suite run.

    Payload generation is deterministic per (seed, check, trial), so the
    workload is identical however the checks are later executed.
    """
    work = []
    for name in SUITES[config.suite]:
        if name not in CHECK_GENERATORS:
            work.append((name, {}))
            continue
        for trial in range(config.trials):
            rng = derive_rng(config.seed, name, trial)
            try:
                payload = CHECK_GENERATORS[name](rng, config)
            except Exception as exc:  # generator trouble is a harness bug
                work.append((name, exc))
                continue
            work.append((name, payload))
    return work


def run_suite(config: SuiteConfig, jobs: int = 1) -> list[CheckOutcome]:
    """Run a suite; trials are independent, so jobs > 1 executes them in a
    process pool.  Reports are identical for serial and parallel runs."""
    if config.suite not in SUITES:
        raise ValueError(
            f"unknown suite {config.suite!r}; available: {sorted(SUITES)}"
        )
    work = _suite_workload(config)
    outcomes: list[CheckOutcome | None] = [None] * len(work)
    pending = []
    for i, (name, payload) in enumerate(work):
        if isinstance(payload, Exception):
            outcomes[i] = CheckOutcome(
                name, "fail", f"generator error: {payload}",
                {"replay": name, "data": {}},
            )
        else:
            pending.append(i)
    if jobs <= 1 or len(pending) <= 1:
        for i in pending:
            name, payload = work[i]
            outcomes[i] = run_check(name, payload)
    else:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(run_check, work[i][0], work[i][1]): i
                for i in pending
            }
            for fut in concurrent.futures.as_completed(futures):
                outcomes[futures[fut]] = fut.result()
    return outcomes


def run_replay(payload: dict) -> CheckOutcome:
    name = payload.get("replay")
    if not isinstance(name, str) or name not in CHECK_EXECUTORS:
        raise ValueError(f"unknown check name {_quote(str(name))}")
    try:
        return run_check(name, payload.get("data", {}), INPUT_ERRORS)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed replay data for {name}: {exc!r}") from exc
