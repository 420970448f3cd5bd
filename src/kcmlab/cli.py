"""Command-line front end."""

from __future__ import annotations

import json
import sys
from typing import List, Optional, Tuple

import click

from . import __version__
from .bootstrap import closure_free, median_bootstrap_time
from .directions import stable_directions
from .droplets import ColumnGeometry, column_masks, event_B1, event_B2, run_droplet_algorithm
from .exact import an_reachability, east_barrier
from .families import load_family
from .geometry import Region, Site, derive_rng, sample_occupation
from .harness import (
    ExperimentConfig,
    exact_region_report,
    fit_scaling,
    kcm_trials_csv,
    run_sweep,
)
from .native import backend


class _Group(click.Group):
    """Turns the library's rejection of bad input (``ValueError``) and its
    failed numerical checks (``ArithmeticError``) into a one-line
    ``Error:`` message with exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, ArithmeticError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="kcm-lab")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON config; every flag has a config key, flags override.")
@click.pass_context
def main(ctx, config_path):
    """Bootstrap percolation and constrained-dynamics toolbox."""
    if config_path:
        with open(config_path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise click.ClickException(
                f"{config_path}: config must be a JSON object, got {type(data).__name__}"
            )
        if all(isinstance(v, dict) for v in data.values()) and data:
            ctx.default_map = data
        else:
            ctx.default_map = {cmd: data for cmd in main.commands}


def _parse_sites(text: str, path: Optional[str] = None) -> List[Site]:
    """``x,y`` entries split by ``;`` or newlines; a bad one is named, with
    its line when the text came from ``path``."""
    sites = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for chunk in map(str.strip, line.split(";")):
            if not chunk or chunk.startswith("#"):
                continue
            try:
                x, y = chunk.split(",")
                sites.append((int(x), int(y)))
            except ValueError:
                where = f"{path} line {lineno}" if path else "--sites"
                raise click.ClickException(f"{where}: expected 'x,y' integers, got {chunk!r}") from None
    return sites


def _parse_box(text: str) -> Tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise click.ClickException(f"box must look like WxH, got {text!r}")


@main.command()
@click.option("--family", required=True, help="built-in name, JSON, or file path")
@click.option("--arcs/--no-arcs", default=True, help="print stable arcs")
def classify(family, arcs):
    """Classify an update family by its stable directions."""
    fam = load_family(family)
    report = stable_directions(fam)
    out = {"family": fam.name, "classification": report.classification}
    if arcs:
        out["full_circle"] = report.full_circle
        out["arcs"] = [
            {"start": list(a.start), "end": list(a.end), "point": a.is_point}
            for a in report.arcs
        ]
    click.echo(json.dumps(out, indent=2))


@main.command("bootstrap-close")
@click.option("--family", required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), default=None,
              help="file of x,y lines (empty sites)")
@click.option("--sites", default=None, help='inline sites "x,y;x,y"')
@click.option("--cap", default=128, show_default=True, help="max window radius")
def bootstrap_close(family, input_path, sites, cap):
    """Free closure of a seed; prints sorted x,y lines."""
    fam = load_family(family)
    if input_path:
        with open(input_path) as fh:
            seed = _parse_sites(fh.read(), input_path)
    elif sites:
        seed = _parse_sites(sites)
    else:
        raise click.ClickException("provide --input or --sites")
    result = closure_free(fam, seed, cap)
    for x, y in sorted(result.closed):
        click.echo(f"{x},{y}")
    click.echo(
        f"# rounds={result.rounds} touched_cap={str(result.touched_cap).lower()}",
        err=True,
    )


@main.command("bootstrap-time")
@click.option("--family", required=True)
@click.option("--q", type=float, required=True)
@click.option("--box", type=int, required=True, help="half-width of the square window")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def bootstrap_time(family, q, box, trials, seed):
    """Median synchronous infection time of the origin."""
    fam = load_family(family)
    out = median_bootstrap_time(fam, q, box, trials, seed)
    del out["times"]
    for k in ("median", "q1", "q3"):
        if out[k] == float("inf"):
            out[k] = None
    click.echo(json.dumps(out, indent=2))


@main.command("kcm-run")
@click.option("--family", required=True)
@click.option("--q", type=float, required=True)
@click.option("--box", default="8x1", show_default=True, help="window WxH, origin at top-right")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--tmax", type=float, default=1e5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--persistence", is_flag=True, default=False,
              help="stop at the first legal origin update instead of first emptiness")
@click.option("--out", "out_path", type=click.Path(), default=None)
def kcm_run(family, q, box, trials, tmax, seed, persistence, out_path):
    """Hitting-time trials of the constrained dynamics; CSV output."""
    fam = load_family(family)
    w, h = _parse_box(box)
    region = Region.corner(w, h)
    text, summary = kcm_trials_csv(fam, region, q, tmax, seed, trials, persistence)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    click.echo(
        f"# mean={summary.mean:.6g} median={summary.median:.6g} "
        f"censored={summary.censor_fraction:.3f} events={summary.events} backend={backend()}",
        err=True,
    )


@main.command()
@click.option("--family", required=True)
@click.option("--box", default="4x1", show_default=True, help="window WxH")
@click.option("--q", type=float, required=True)
def exact(family, box, q):
    """Spectral gap, relaxation time and exact mean hitting time."""
    fam = load_family(family)
    w, h = _parse_box(box)
    report = exact_region_report(fam, Region.corner(w, h), q)
    click.echo(json.dumps(report, indent=2))


@main.command("east-barrier")
@click.option("--ell", type=int, required=True)
def east_barrier_cmd(ell):
    """Minimal simultaneous empties to empty site ell of an East chain."""
    barrier = east_barrier(ell)
    click.echo(json.dumps({"ell": ell, "barrier": barrier}))


@main.command("an-reach")
@click.option("--family", required=True)
@click.option("--n", type=int, required=True)
@click.option("--kappa", type=int, default=1, show_default=True)
def an_reach(family, n, kappa):
    """Zero-capped reachability on the dyadic square."""
    fam = load_family(family)
    click.echo(json.dumps(an_reachability(fam, n, kappa), indent=2))


@main.command("duarte-phi")
@click.option("--q", type=float, default=0.3, show_default=True)
@click.option("--n-columns", "--N", "n_columns", type=int, required=True)
@click.option("--ell", type=int, required=True)
@click.option("--n1", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--n2", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--input", "input_path", type=click.Path(exists=True), default=None,
              help="file of x,y lines naming the empty sites on V")
def duarte_phi(q, n_columns, ell, n1, n2, seed, input_path):
    """Arrow profile, droplets and the B1/B2 events for one configuration."""
    geometry = ColumnGeometry(n_columns)
    if input_path:
        with open(input_path) as fh:
            empties = frozenset(_parse_sites(fh.read(), input_path))
        bad = empties - geometry.region.sites
        if bad:
            raise click.ClickException(f"{len(bad)} input sites outside V")
        state = [int(s not in empties) for s in sorted(geometry.region.sites)]
    else:
        state = sample_occupation(geometry.region, q, derive_rng(seed, 0))
    masks = column_masks(geometry, state)
    profile = run_droplet_algorithm(masks, geometry, ell)
    witness = event_B2(masks, profile, geometry, n2)
    out = {
        "phi": profile.phi_string(),
        "droplets": [
            {"k": d.k, "xi": d.xi, "range": d.range}
            for d in sorted(profile.droplets.values(), key=lambda r: r.k)
        ],
        "b1": {"n": n1, "hit": event_B1(profile, n1)},
        "b2": {
            "n": n2,
            "hit": witness is not None,
            "witness": None if witness is None else {
                "i": witness[0], "j": witness[1],
                "path": [list(s) for s in witness[2]],
            },
        },
    }
    click.echo(json.dumps(out, indent=2))


@main.command()
@click.option("--kind", type=click.Choice(["kcm", "bootstrap", "exact"]), required=True)
@click.option("--family", required=True)
@click.option("--q", "qs", type=float, multiple=True, required=True)
@click.option("--box", type=int, required=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--tmax", type=float, default=1e5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--persistence", is_flag=True, default=False)
@click.option("--out-dir", default=".", show_default=True)
def sweep(kind, family, qs, box, trials, tmax, seed, persistence, out_dir):
    """Run a q-sweep and write per-q files plus a manifest."""
    config = ExperimentConfig(
        kind=kind, family=family, qs=list(qs), box=box, trials=trials,
        t_max=tmax, seed=seed, persistence=persistence, out_dir=out_dir,
    )
    manifest = run_sweep(config)
    click.echo(json.dumps(manifest, indent=2))
    if manifest["status"] != "ok":
        sys.exit(1)


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True,
              help="CSV with q,time columns (comments allowed)")
def fit(input_path):
    """Fit log(time) against the predictor family and flag a winner."""
    points = []
    with open(input_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("q,"):
                continue
            try:
                q_str, t_str = line.split(",")[:2]
                points.append((float(q_str), float(t_str)))
            except ValueError:
                raise click.ClickException(
                    f"{input_path} line {lineno}: expected 'q,time' numbers, got {line!r}"
                ) from None
    report = fit_scaling(points)
    click.echo(report.to_json())


if __name__ == "__main__":
    main()
