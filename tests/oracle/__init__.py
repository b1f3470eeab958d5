"""Reference implementations the tests compare the pipeline against.

Each module here implements, in the plainest form, a rule that ``src/repro``
runs elsewhere in a faster or fused form; nothing under ``src`` imports
them, and no entry point calls them (``scripts/reach.py`` measures that):

* :mod:`tests.oracle.join` — one-shot left / inner joins and key
  deduplication over :class:`~repro.dataframe.JoinIndex`, and the
  independent dict-of-boxed-scalars dedup + index + probe the encoded join
  kernels are held to;
* :mod:`tests.oracle.names` — the scalar Levenshtein, Jaro-Winkler and
  character n-gram similarities COMA's per-name feature scorer fuses;
* :mod:`tests.oracle.selection` — scalar Spearman relevance and the
  column-by-column relevance menu, the five Eq. (1)/(2) redundancy
  criteria one candidate at a time, the naive and incremental greedy
  forward selection over them, and the column-wise midrank matrix the
  selection kernels (and the kernel ``greedy_select``) must reproduce;
* :mod:`tests.oracle.overlap` — sketch Jaccard, containment and the
  MinHash estimate one at a time, the table-pair overlap gate, and the
  instance-only matcher the ``value_overlap`` rows of the COMA goldens
  were frozen from;
* :mod:`tests.oracle.coma` — COMA's per-pair scan (every key-like column
  pair of every table pair, names measured from fresh features), the form
  its one-pass lake matcher is held to row for row;
* :mod:`tests.oracle.lazo` — Lazo's per-pair banding (one table's band
  keys bucketed, the other's looked up, colliding pairs scored and
  sorted), the form its once-per-lake banding pass is held to row for row;
* :mod:`tests.oracle.gbdt` — gradient-boosted trees grown one node and
  one feature at a time (every node searched, every boosting round
  re-predicting every row), the form the two-children split kernel of
  ``repro.ml.gbdt`` is held to bit for bit.
"""
