"""Declarative experiment campaigns with a persistent result store.

The paper's contribution is a *matrix* of predictions - Tables 4-7 and
Figures 5-8 sweep applications x platforms x core counts x tile heights and
cross-check model against measurement.  This package turns such a matrix
into a single declarative artifact and makes running it cheap, resumable and
reportable:

**Spec** (:mod:`repro.campaigns.spec`)
    :class:`CampaignSpec` names the axes; :meth:`CampaignSpec.points`
    expands them into content-hash-keyed :class:`CampaignPoint` requests.
    Specs load from dicts or JSON files, and four built-ins ship as package
    data (:mod:`repro.campaigns.builtin`).

**Store** (:mod:`repro.campaigns.store`)
    :class:`ResultStore` persists every evaluated point as one JSON line in
    a sharded segment log under ``.repro-cache/<name>.store`` (or any
    ``--store`` path; ``$REPRO_CACHE_DIR`` overrides the cache directory).
    Records are routed to 16 segment files by content-hash prefix, each with
    an index sidecar, so opening a store parses the indexes - not the record
    bodies - and concurrent appenders never interleave torn lines.  Keys are
    content hashes, so re-runs and interrupted campaigns compute only the
    delta; single-file v1 stores migrate in place on first open.

**Records** (:mod:`repro.campaigns.records`)
    The two record-line shapes: the runner writes each computed point as a
    compact v3 line, which reads back expanded into the same record a v2
    line holds, so every reader sees one shape.

**Runner** (:mod:`repro.campaigns.runner`)
    :class:`CampaignRunner` diffs the spec against the store and batches the
    missing points through :func:`repro.backends.service.predict_many` (one
    call per backend group, preserving dedup/caching/pool fan-out), group-
    committing each batch via :meth:`ResultStore.put_many`.  ``shards=K``
    fans the pending points out across ``K`` worker processes partitioned by
    stable content hash; ``resume=True`` salvages the scratch stores of a
    killed fan-out run.

**Report** (:mod:`repro.campaigns.report`)
    :func:`campaign_report` renders Markdown tables - including the
    model-vs-measurement error columns of Tables 4-7 - and
    :func:`write_report` emits the Figure 5/6 CSV data files.

End to end:

>>> import tempfile, os
>>> from repro.campaigns import CampaignSpec, run_campaign, campaign_report
>>> spec = CampaignSpec(
...     name="mini", apps=("lu-classA",), total_cores=(4, 16),
...     backends=("analytic-fast", "analytic-exact"), baseline="analytic-exact",
... )
>>> store = os.path.join(tempfile.mkdtemp(), "mini.store")
>>> run_campaign(spec, store=store).computed
4
>>> run_campaign(spec, store=store).computed   # second run: all cached
0
>>> "# Campaign report: mini" in campaign_report(store)
True

The CLI front end is ``wavebench campaign run|report|list|clean``.
"""

from repro.campaigns.builtin import builtin_campaigns, get_campaign
from repro.campaigns.report import campaign_report, write_report
from repro.campaigns.runner import (
    CampaignRunner,
    CampaignRunSummary,
    run_campaign,
)
from repro.campaigns.spec import (
    CampaignPoint,
    CampaignSpec,
    apply_htile,
    load_campaign_file,
    partition_points,
    shard_of,
)
from repro.campaigns.store import (
    ResultStore,
    default_store_path,
    find_project_root,
    repro_cache_dir,
)

__all__ = [
    "CampaignPoint",
    "CampaignRunSummary",
    "CampaignRunner",
    "CampaignSpec",
    "ResultStore",
    "apply_htile",
    "builtin_campaigns",
    "campaign_report",
    "default_store_path",
    "find_project_root",
    "get_campaign",
    "load_campaign_file",
    "partition_points",
    "repro_cache_dir",
    "run_campaign",
    "shard_of",
    "write_report",
]
