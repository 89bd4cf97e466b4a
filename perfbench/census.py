"""Deterministic census-income-shaped CSV generator.

Writes the raw shape of the UCI Adult file that ``configs/adult.schema.json``
describes: 48,842 rows, 3,620 of them (7.4%) carrying a ``?`` token, so that
``encode`` keeps 45,222 rows; the Adult level counts (workclass 7, education
16, marital-status 7, occupation 14, relationship 6, race 5, sex 2,
native-country 41), which encode to 104 columns, 56 of them public under the
``configs/adult_*.json`` split; and 24.8% positive labels among kept rows.

The label is a noisy threshold of a latent score whose noise is tuned so that
non-private logistic regression on balanced data scores about 0.8, as on the
real census data, rather than separating the classes.

The same seed gives the same bytes. Row counts, level sets and the number of
positives are fixed by construction, so every seed yields the same matrix
shape and the same balanced training size.

    python3 perfbench/census.py --seed 0 --out census.csv
"""

from __future__ import annotations

import argparse

import numpy as np

ROWS = 48_842
MISSING_ROWS = 3_620
POSITIVE_FRAC = 0.248
LABEL_NOISE = 0.6  # logistic-noise scale of the latent score

HEADER = (
    "age", "workclass", "fnlwgt", "education", "education-num", "marital-status",
    "occupation", "relationship", "race", "sex", "capital-gain", "capital-loss",
    "hours-per-week", "native-country", "income",
)

# (level, sampling weight, latent-score effect)
WORKCLASS = (
    ("Private", 0.74, 0.0), ("Self-emp-not-inc", 0.08, 0.1), ("Local-gov", 0.065, 0.1),
    ("State-gov", 0.04, 0.0), ("Self-emp-inc", 0.035, 0.6), ("Federal-gov", 0.03, 0.4),
    ("Without-pay", 0.01, -0.8),
)
# (level, weight, education-num)
EDUCATION = (
    ("Preschool", 0.004, 1), ("1st-4th", 0.006, 2), ("5th-6th", 0.011, 3),
    ("7th-8th", 0.02, 4), ("9th", 0.016, 5), ("10th", 0.028, 6), ("11th", 0.036, 7),
    ("12th", 0.013, 8), ("HS-grad", 0.322, 9), ("Some-college", 0.222, 10),
    ("Assoc-voc", 0.043, 11), ("Assoc-acdm", 0.033, 12), ("Bachelors", 0.165, 13),
    ("Masters", 0.055, 14), ("Prof-school", 0.015, 15), ("Doctorate", 0.011, 16),
)
MARITAL = (
    ("Married-civ-spouse", 0.46, 1.6), ("Never-married", 0.33, -0.5), ("Divorced", 0.136, 0.0),
    ("Separated", 0.031, -0.3), ("Widowed", 0.03, 0.0), ("Married-spouse-absent", 0.012, 0.0),
    ("Married-AF-spouse", 0.001, 1.2),
)
OCCUPATION = (
    ("Prof-specialty", 0.13, 0.7), ("Craft-repair", 0.13, 0.0), ("Exec-managerial", 0.13, 0.8),
    ("Adm-clerical", 0.12, -0.1), ("Sales", 0.12, 0.3), ("Other-service", 0.105, -0.9),
    ("Machine-op-inspct", 0.065, -0.3), ("Transport-moving", 0.05, -0.1),
    ("Handlers-cleaners", 0.044, -0.7), ("Farming-fishing", 0.032, -0.7),
    ("Tech-support", 0.031, 0.4), ("Protective-serv", 0.021, 0.3),
    ("Priv-house-serv", 0.005, -1.2), ("Armed-Forces", 0.002, 0.0),
)
RELATIONSHIP_SINGLE = (
    ("Not-in-family", 0.48, 0.0), ("Own-child", 0.3, -1.0), ("Unmarried", 0.18, -0.2),
    ("Other-relative", 0.04, -0.4),
)
RACE = (
    ("White", 0.855, 0.1), ("Black", 0.096, -0.1), ("Asian-Pac-Islander", 0.031, 0.1),
    ("Amer-Indian-Eskimo", 0.01, -0.2), ("Other", 0.008, -0.2),
)
COUNTRIES = (
    "United-States", "Mexico", "Philippines", "Germany", "Puerto-Rico", "Canada",
    "El-Salvador", "India", "Cuba", "England", "China", "South", "Jamaica", "Italy",
    "Dominican-Republic", "Japan", "Guatemala", "Poland", "Vietnam", "Columbia", "Haiti",
    "Portugal", "Taiwan", "Iran", "Greece", "Nicaragua", "Peru", "Ecuador", "France",
    "Ireland", "Hong", "Thailand", "Cambodia", "Trinadad&Tobago", "Laos", "Yugoslavia",
    "Outlying-US(Guam-USVI-etc)", "Scotland", "Honduras", "Hungary", "Holand-Netherlands",
)


def _pick(rng, table, n):
    """Sample level indices by weight; returns (indices, level-name array)."""
    names = np.array([t[0] for t in table])
    w = np.array([t[1] for t in table], dtype=np.float64)
    idx = rng.choice(len(table), size=n, p=w / w.sum())
    return idx, names


def _effect(table, idx, column=2):
    return np.array([t[column] for t in table], dtype=np.float64)[idx]


def generate(seed: int, rows: int = ROWS) -> list[str]:
    """CSV lines (header first) of a census-shaped table for ``seed``."""
    rng = np.random.default_rng(seed)
    missing_rows = round(rows * MISSING_ROWS / ROWS)
    n = rows

    age = np.clip(np.round(17 + rng.gamma(2.2, 9.5, n)), 17, 90).astype(np.int64)
    wc_i, wc_names = _pick(rng, WORKCLASS, n)
    fnlwgt = np.clip(np.round(rng.lognormal(np.log(178_000), 0.5, n)), 12_285, 1_490_400).astype(np.int64)
    ed_i, ed_names = _pick(rng, EDUCATION, n)
    ed_num = _effect(EDUCATION, ed_i).astype(np.int64)

    # Young people are mostly never married; otherwise marital status follows
    # the census mix.
    ms_i, ms_names = _pick(rng, MARITAL, n)
    young = (age < 25) & (rng.random(n) < 0.8)
    ms_i = np.where(young, 1, ms_i)
    oc_i, oc_names = _pick(rng, OCCUPATION, n)
    sex_male = rng.random(n) < 0.67
    married = np.isin(ms_i, (0, 6))
    rs_single_i, rs_single_names = _pick(rng, RELATIONSHIP_SINGLE, n)
    rel_names = np.array(["Husband", "Wife"] + list(rs_single_names))
    rel_i = np.where(married, np.where(sex_male, 0, 1), rs_single_i + 2)
    rel_effect = np.concatenate([[0.0, 0.3], [t[2] for t in RELATIONSHIP_SINGLE]])[rel_i]
    race_i, race_names = _pick(rng, RACE, n)

    # Every country level appears: 90% United-States, 2% Mexico, the rest
    # spread evenly over the remaining 39.
    cw = np.array([0.90, 0.02] + [0.08 / 39] * 39)
    nc_i = rng.choice(len(COUNTRIES), size=n, p=cw / cw.sum())

    has_gain = rng.random(n) < 0.083
    gain = np.where(has_gain, np.clip(np.round(rng.lognormal(np.log(7_000), 0.9, n)), 114, 99_999), 0)
    gain = np.where(has_gain & (rng.random(n) < 0.06), 99_999, gain).astype(np.int64)
    has_loss = rng.random(n) < 0.047
    loss = np.where(has_loss, np.clip(np.round(rng.normal(1_900, 350, n)), 155, 4_356), 0).astype(np.int64)
    hours = np.clip(np.round(np.where(rng.random(n) < 0.47, 40, rng.normal(40, 13, n))), 1, 99).astype(np.int64)

    score = (
        -0.0009 * (age - 48.0) ** 2 + 0.03 * (age - 38.0)
        + 0.33 * (ed_num - 10)
        + _effect(MARITAL, ms_i) + _effect(OCCUPATION, oc_i) + _effect(WORKCLASS, wc_i)
        + rel_effect + _effect(RACE, race_i)
        + 1.4 * sex_male
        + 0.03 * (hours - 40)
        + np.where(gain >= 5_000, 2.5, np.where(gain > 0, 0.3, 0.0))
        + 0.6 * (loss > 0)
        + rng.logistic(0.0, LABEL_NOISE, n)
    )

    # Missing tokens go to a fixed number of rows: mostly workclass and
    # occupation together, as in Adult, some native-country only.
    missing = np.zeros(n, dtype=bool)
    missing[rng.permutation(n)[:missing_rows]] = True
    kind = rng.random(n)
    wc_missing = missing & (kind < 0.75)
    oc_missing = missing & (kind < 0.85)
    nc_missing = missing & (kind >= 0.75)

    # The top POSITIVE_FRAC of kept rows by score are positive, so the positive
    # count (and hence the balanced size) is the same for every seed.
    kept_scores = score[~missing]
    n_pos = round(POSITIVE_FRAC * kept_scores.size)
    cut = np.sort(kept_scores)[kept_scores.size - n_pos]
    positive = score >= cut

    wc = np.where(wc_missing, "?", wc_names[wc_i])
    oc = np.where(oc_missing, "?", oc_names[oc_i])
    nc = np.where(nc_missing, "?", np.array(COUNTRIES)[nc_i])
    columns = (
        age, wc, fnlwgt, ed_names[ed_i], ed_num, ms_names[ms_i], oc, rel_names[rel_i],
        race_names[race_i], np.where(sex_male, "Male", "Female"), gain, loss, hours, nc,
        np.where(positive, ">50K", "<=50K"),
    )
    columns = [c.astype(str).tolist() for c in columns]
    return [",".join(HEADER)] + [",".join(fields) for fields in zip(*columns)]


def write_census_csv(path, seed: int, rows: int = ROWS) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(generate(seed, rows)) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--rows", type=int, default=ROWS)
    args = parser.parse_args(argv)
    write_census_csv(args.out, args.seed, args.rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
