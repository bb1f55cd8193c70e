#!/usr/bin/env python3
"""Validates bench JSON records against the invariants CI gates.

Usage: python3 bench/validate_records.py FILE...

Each FILE is checked by its kind: a Chrome trace (`traceEvents`) or a
record whose `bench` field is engine_perf, dataplane, topology,
replication or fig20_breakdown. The same script runs on the committed
BENCH_*.json records and on freshly regenerated ones. Hardware-gated
speedup asserts read `hw_concurrency` from the engine_perf record when
one is among the files, and stay unarmed otherwise. Exits non-zero on
the first failed assert.
"""

import json
import sys

PROVENANCE_KEYS = ('source', 'build_type', 'compiler', 'hardware_concurrency',
                   'nproc_online', 'mode')


def check_provenance(doc):
    """Committed records say what produced them (bench::provenance)."""
    prov = doc.get('provenance')
    assert isinstance(prov, dict), f"{doc['bench']}: no provenance block"
    missing = [k for k in PROVENANCE_KEYS if k not in prov]
    assert not missing, f"{doc['bench']}: provenance lacks {missing}"
    assert prov['source'], prov
    assert prov['mode'] in ('quick', 'full'), prov
    assert prov['hardware_concurrency'] >= 1 and prov['nproc_online'] >= 1, \
        prov


def check_workers(used, threads, partitions, what):
    """The engine may shed workers, never run more than it was given."""
    assert 1 <= used <= min(threads, partitions), \
        f'{what}: workers_used {used} outside [1, min({threads}, {partitions})]'


def check_engine(eng, hw_concurrency):
    check_provenance(eng)
    assert eng['sweep_identical'] is True
    assert eng['tracer_inert'] is True
    assert eng['timer_churn_events_per_sec'] > 0, \
        'timer-churn cell (cancellable events) missing'
    assert eng['steady_state_allocs_per_event'] == 0
    assert eng['sweep_jobs'] >= 2, 'sweep gate ran serial vs serial'
    scaling = eng['engine_scaling']
    assert scaling['nodes'] == 64
    assert scaling['identical'] is True, \
        'partitioned engine diverged from the serial engine'
    threads_seen = {int(r['threads']) for r in scaling['rows']}
    assert threads_seen == {1, 2, 4, 8}, threads_seen
    for r in scaling['rows']:
        assert r['identical'] is True, r
        assert r['events_per_sec'] > 0, r
        check_workers(r['workers_used'], r['threads'], r['partitions'], r)
        assert 0 < r['max_partition_event_share'] <= 1, r
    # On an even load every worker shortens the critical path: the
    # worker-count rule must keep them all, or it has undone scaling.
    even = scaling['even_load_rows']
    assert {int(r['threads']) for r in even} == {1, 2, 4, 8}, even
    for r in even:
        assert r['workers_used'] == r['threads'], \
            f'even load shed workers: {r}'
        assert r['wall_secs'] > 0 and r['speedup'] > 0, r
    # Wall-clock speedup is only meaningful with real cores under the
    # workers; gate the scaling win when the runner has them. The gate
    # reads the even CPU-bound load: the micro cell in 'rows' is
    # server-bound (max_partition_event_share ~0.56, so no placement
    # beats ~1.8x there) and is kept for its identity checks only.
    if hw_concurrency >= 8:
        e8 = next(r for r in even if r['threads'] == 8)
        assert e8['speedup'] >= 2.0, \
            f"8-thread even-load speedup regressed: {e8['speedup']:.2f}x"
    return f"{len(scaling['rows'])} engine-scaling rows"


def check_trace(trace, hw_concurrency):
    evs = trace['traceEvents']
    assert len(evs) > 0, 'empty trace'
    cats = {e['cat'] for e in evs if 'cat' in e}
    for want in ('host', 'net', 'rnic', 'rpc'):
        assert want in cats, f'missing category {want}: {cats}'
    return f'{len(evs)} trace events'


def check_fig20(res, hw_concurrency):
    assert all('breakdown' in r for r in res['rows'])
    return f"{len(res['rows'])} rows"


def check_dataplane(dp, hw_concurrency):
    check_provenance(dp)
    assert dp['mode_parity'] is True, 'kShadow stats drifted from kFull'
    assert dp['steady_ok'] is True
    assert dp['steady_event_pool_allocs'] == 0
    assert dp['steady_fn_heap_allocs'] == 0
    assert dp['steady_payload_slab_bytes'] == 0
    # Whole-process allocations per durable RPC (engine_perf counts
    # every global operator new). The ceiling only ever goes down, at
    # 1.5x the latest measurement: 0 once shadow extents of cold object,
    # log and staging slots went into flat per-slot tables (0.18 before,
    # when each took a map node; 14.18 before coroutine frames came from
    # per-shard arenas and the RC windows, queues, completer and
    # replication ledger stopped allocating per op, 15.18 before write
    # watches stopped copying callbacks, 25.26 before host charges
    # stopped allocating coroutine frames).
    assert dp['steady_process_allocs_per_rpc'] == 0, \
        f"whole-process allocs/RPC rose: {dp['steady_process_allocs_per_rpc']}"
    assert 0 < dp['link_lookup_ns_per_op'] < 200, \
        f"link-table lookup cost off: {dp['link_lookup_ns_per_op']}"
    cells = dp['cells']
    assert {c['object_size'] for c in cells} == {64, 1024, 16384}
    shadow = [c for c in cells if c['mode'] == 'shadow']
    full = [c for c in cells if c['mode'] == 'full']
    for s, f in zip(sorted(shadow, key=lambda c: c['object_size']),
                    sorted(full, key=lambda c: c['object_size'])):
        assert s['bytes_copied_per_op'] < f['bytes_copied_per_op'], \
            f"shadow must elide copies at {s['object_size']}B"
    # 1:1 read/write rows: reads of never-written objects take the
    # pristine path, so shadow copies must not grow with size.
    mixed = [c for c in cells if c['read_ratio'] == 0.5]
    assert {(c['object_size'], c['mode']) for c in mixed} == \
        {(z, m) for z in (64, 1024, 16384) for m in ('full', 'shadow')}
    assert all(c['stats_match_other_mode'] is True for c in mixed), mixed
    mixed_shadow = {c['object_size']: c for c in mixed
                    if c['mode'] == 'shadow'}
    assert (mixed_shadow[16384]['bytes_copied_per_op'] <=
            mixed_shadow[64]['bytes_copied_per_op']), \
        'shadow read/write copies grew with object size'
    return f'{len(cells)} data-plane cells'


def check_topology(topo, hw_concurrency):
    check_provenance(topo)
    assert topo['deterministic'] is True, \
        'switched fabric diverged between serial and partitioned runs'
    topo_rows = topo['rows']
    assert {r['hosts'] for r in topo_rows} == {2, 64, 128, 512}, topo_rows
    for r in topo_rows:
        assert r['identical'] is True, r
        assert r['switch_hops'] > 0, r
        assert r['kops'] > 0 and r['ops_completed'] > 0, r
        runs = r['runs']
        assert {int(t['threads']) for t in runs} == {1, 2, 4, 8}, r
        assert all(t['identical'] is True for t in runs), r
        for t in runs:
            check_workers(t['workers_used'], t['threads'],
                          r['engine_partitions'], r)
        assert 0 < r['max_partition_event_share'] <= 1, r
        epochs = {int(t['epochs']) for t in runs}
        assert len(epochs) == 1 and r['engine_epochs'] in epochs, \
            f"epoch count moved with --engine-threads: {r}"
    r64 = next(r for r in topo_rows if r['hosts'] == 64)
    assert r64['racks'] == 4 and r64['max_port_queue_ns'] > 0, r64
    r512 = next(r for r in topo_rows if r['hosts'] == 512)
    assert r512['racks'] == 32 and r512['clients_per_host'] >= 1000, r512
    assert r512['total_clients'] >= 500000, r512
    assert r512['engine_partitions'] == 32, r512
    assert 0 < r512['active_clients'] <= r512['total_clients'], r512
    # Process peak RSS once the 512-host cell is done: 1.5x the
    # highest of 8 --quick runs (106-120 MiB) measured when device
    # byte planes became one line table per device (168-180 MiB
    # before sparse histograms and the CSR route table, 220-252 MiB
    # before those, ~700 MiB before sparse device planes).
    assert r512['peak_rss_mb'] <= 180, \
        f"512-host peak RSS rose: {r512['peak_rss_mb']:.1f} MiB"
    lrows = topo['loss_sweep']
    assert topo['loss_ok'] is True, \
        'degraded-fabric gates failed (see rack_scale loss sweep)'
    assert {float(r['loss']) for r in lrows} == {0.0, 3e-3, 1e-2}, lrows
    for r in lrows:
        assert r['ok'] is True and r['identical'] is True, r
    clean = next(r for r in lrows if r['loss'] == 0.0)
    worst = next(r for r in lrows if r['loss'] >= 1e-2)
    assert clean['net_drops'] == 0 and clean['rnic_retransmits'] == 0, \
        clean
    # Every lossy row must drop and recover, or its gate proves nothing.
    for r in lrows:
        if r['loss'] > 0:
            assert r['net_drops'] > 0 and r['rnic_retransmits'] > 0, r
    assert worst['avg_us'] >= clean['avg_us'], \
        f"lossy fabric got faster: {clean} vs {worst}"
    ab = topo['layout_ab']
    assert ab['fewer_barriers'] is True, \
        f"per-rack layout did not cut barrier count: {ab}"
    assert ab['same_work'] is True, ab
    assert ab['per_rack_epochs_per_sim_s'] < \
        ab['per_node_epochs_per_sim_s'], ab
    if hw_concurrency >= 8 and ab['speedup_gate_armed']:
        assert ab['speedup'] >= 1.3, \
            f"per-rack wall-clock speedup regressed: {ab['speedup']:.2f}x"
    return f'{len(topo_rows)} topology cells'


def check_replication(repl, hw_concurrency):
    rows = repl['rows']
    assert len(rows) == 20, f'expected 20 replication cells, got {len(rows)}'
    cells_seen = {r['name'].split('/')[0] for r in rows}
    assert cells_seen == {'none-r1', 'chain-r2', 'chain-r3',
                          'mirror-r2', 'mirror-r3'}, cells_seen
    variants = {r['name'].split('/')[1] for r in rows}
    assert len(variants) == 4, f'expected 4 durable variants: {variants}'
    assert all(r['ops'] > 0 and r['kops'] > 0 for r in rows)
    return f'{len(rows)} replication cells'


CHECKS = {
    'engine_perf': check_engine,
    'dataplane': check_dataplane,
    'topology': check_topology,
    'replication': check_replication,
    'fig20_breakdown': check_fig20,
}


def main(paths):
    if not paths:
        sys.exit(__doc__)
    docs = {}
    for path in paths:
        with open(path) as f:
            docs[path] = json.load(f)
    engine = [d for d in docs.values() if d.get('bench') == 'engine_perf']
    hw = engine[0]['engine_scaling']['hw_concurrency'] if engine else 0
    for path, doc in docs.items():
        if 'traceEvents' in doc:
            check = check_trace
        else:
            assert doc.get('bench') in CHECKS, \
                f"{path}: unknown record kind {doc.get('bench')!r}"
            check = CHECKS[doc['bench']]
        print(f'ok: {path}: {check(doc, hw)}')


if __name__ == '__main__':
    main(sys.argv[1:])
