"""The golden-report matrix: bundled fixture reports under every configuration.

Each configuration runs `run_experiment` on `dataset_20.jsonl` against a
`MockService`, with roles from `ragmend.build_roles`. A report is kept
without its per-record `timings`, with the mock's address written as
`{base}` and the page-cache directory as `{cache}`, so it is the same on
every run and every port. `tests/test_golden.py` compares with
`tests/golden/reports.jsonl`; `scripts/update_golden.py` rewrites that file.
"""

from __future__ import annotations

import json
from pathlib import Path

from ragmend import build_roles, run_experiment
from ragmend.config import load_config

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "reports.jsonl"

DEGRADATION_SEED = 0

# label -> (mode, ablation overrides); each runs under both scorers and both p.
VARIANTS = {
    "crag": ("crag", ()),
    "plain_rag": ("plain_rag", ()),
    "rag_web": ("rag_web", ()),
    "crag+no_selection": ("crag", ("ablations.no_selection=true",)),
    "crag+no_refinement": ("crag", ("ablations.no_refinement=true",)),
    "crag+no_rewriting": ("crag", ("ablations.no_rewriting=true",)),
    "crag+only_action=Ambiguous": ("crag", ("ablations.only_action=Ambiguous",)),
    "crag+disable_action=Incorrect": ("crag", ("ablations.disable_action=Incorrect",)),
}

CONFIGURATIONS = tuple(
    f"{scorer}/p{p}/{label}"
    for scorer in ("lexical", "remote")
    for p in (0, 1)
    for label in VARIANTS
)


def run_configuration(name: str, instances, base: str, cache_dir: Path) -> dict:
    """The normalized report of one configuration named in `CONFIGURATIONS`."""
    scorer, p, label = name.split("/", 2)
    mode, ablations = VARIANTS[label]
    overrides = [f"search.endpoint={base}/search", f"search.cache_dir={cache_dir}"]
    if scorer == "remote":
        overrides += ["scorer.kind=remote", f"scorer.endpoint={base}/score"]
    cfg = load_config(None, overrides + list(ablations))
    report = run_experiment(
        instances, cfg, mode, (float(p[1:]), DEGRADATION_SEED), **build_roles(cfg)
    ).to_dict()
    for record in report["records"]:
        del record["timings"]
    text = json.dumps(report).replace(base, "{base}").replace(str(cache_dir), "{cache}")
    return json.loads(text)


def read_golden(path: Path = GOLDEN_FILE) -> dict[str, dict]:
    """Configuration name -> normalized report, as the golden file holds them."""
    lines = path.read_text("utf-8").splitlines()
    return {entry["configuration"]: entry["report"] for entry in map(json.loads, lines)}


def golden_line(name: str, report: dict) -> str:
    return json.dumps({"configuration": name, "report": report}, sort_keys=True)
