"""Batch command-line interface: one subcommand per pipeline stage.

Exit code 0 on success; every error class maps to its own nonzero code
(see errors.py), config errors included.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .aggregate import AggregationKind
from .errors import ToolkitError
from .pipeline import FAMILIES, PipelineConfig, run_stage


class _ToolkitGroup(click.Group):
    """Reports any ToolkitError a subcommand raises and exits with its code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ToolkitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)


def _run(ctx, stages, family="mpeg7", overrides=None, **kwargs):
    """Run ``stages`` in order for ``family``, or for every configured family
    when ``family`` is None. ``overrides`` maps config fields to new values;
    a None value keeps the config's."""
    params = ctx.obj
    if params["config"] is None:
        raise click.UsageError("--config is required for pipeline stages")
    cfg = PipelineConfig.from_json(params["config"])
    if params["seed"] is not None:
        cfg.seed = params["seed"]
    for name, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, name, value)
    for fam in [family] if family else cfg.families:
        for stage in stages:
            outputs = run_stage(stage, cfg, family=fam, force=params["force"],
                                jobs=params["jobs"], **kwargs)
            label = stage if family else f"{stage} {fam}"
            if outputs:
                click.echo(f"{label}: wrote {len(outputs)} artifact(s) under {cfg.cache_dir}")
            else:
                click.echo(f"{label}: up to date")


@click.group(cls=_ToolkitGroup)
@click.option("--config", type=click.Path(exists=True, path_type=Path), default=None,
              help="Pipeline config JSON.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes for per-movie stages.")
@click.option("--force", is_flag=True, help="Rebuild even if cached artifacts exist.")
@click.pass_context
def main(ctx, config, seed, jobs, force):
    """Visual-feature movie recommendation pipeline."""
    ctx.obj = {"config": config, "seed": seed, "jobs": jobs, "force": force}


def _stage_command(stage: str, doc: str):
    """A subcommand that runs one stage with no options of its own."""

    @main.command(stage, help=doc)
    @click.pass_context
    def command(ctx):
        _run(ctx, [stage])

    return command


segment = _stage_command("segment", "Detect shots and dump one keyframe per shot.")
extract = _stage_command(
    "extract", "Compute the 774-element MPEG-7 descriptor vector for every keyframe."
)
fuse = _stage_command("fuse", "Fit CCA on the two visual families and emit fused vectors.")
textfeat = _stage_command("textfeat", "Build the genre and tag-LSA baseline features.")


_AGG_CHOICES = click.Choice([kind.value for kind in AggregationKind])


@main.command()
@click.option("--agg-mpeg7", type=_AGG_CHOICES, default=None,
              help="Aggregation for the MPEG-7 family (default from config).")
@click.option("--agg-dnn", type=_AGG_CHOICES, default=None,
              help="Aggregation for the DNN family (default from config).")
@click.pass_context
def aggregate(ctx, agg_mpeg7, agg_dnn):
    """Collapse keyframe vectors into movie-level vectors."""
    _run(ctx, ["aggregate"], overrides={"agg_mpeg7": agg_mpeg7, "agg_dnn": agg_dnn})


_FAMILY_CHOICE = click.Choice(sorted(FAMILIES))


def _hyper_options(fn):
    fn = click.option("--alpha", type=float, default=None)(fn)
    fn = click.option("--gamma", type=float, default=None)(fn)
    fn = click.option("--lr", "learning_rate", type=float, default=None)(fn)
    fn = click.option("--epochs", type=int, default=None)(fn)
    return fn


@main.command()
@click.option("--features", type=_FAMILY_CHOICE, default="mpeg7", show_default=True)
@_hyper_options
@click.pass_context
def train(ctx, features, **hypers):
    """Train a similarity model on the full rating set."""
    _run(ctx, ["train"], features, hypers)


@main.command()
@click.option("--features", type=_FAMILY_CHOICE, default=None,
              help="Single family; default: every family from the config.")
@_hyper_options
@click.pass_context
def evaluate(ctx, features, **hypers):
    """Run the 5-fold top-N evaluation protocol."""
    _run(ctx, ["evaluate"], features, hypers)


@main.command()
@click.option("--features", type=_FAMILY_CHOICE, default="mpeg7", show_default=True)
@click.option("--user", type=int, required=True)
@click.option("-n", "--top-n", type=int, default=10, show_default=True)
@click.pass_context
def recommend(ctx, features, user, top_n):
    """Print the trained model's top-N items for one user."""
    _run(ctx, ["recommend"], features, user=user, top_n=top_n)


@main.command("run-all")
@click.pass_context
def run_all(ctx):
    """Run segment, extract, aggregate, fuse, textfeat and evaluate in order."""
    _run(ctx, ["segment", "extract", "aggregate", "fuse", "textfeat"])
    _run(ctx, ["evaluate"], family=None)


@main.command("make-mini-dataset")
@click.option("--out", type=click.Path(path_type=Path), required=True)
@click.option("--seed", type=int, default=7, show_default=True)
def make_mini_dataset(out, seed):
    """Generate the bundled synthetic mini-corpus."""
    from .minidata import generate

    config_path = generate(out, seed=seed)
    click.echo(f"mini dataset written; config at {config_path}")


if __name__ == "__main__":
    main()
