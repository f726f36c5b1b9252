#!/usr/bin/env bash
# pairs.sh — alternating before/after runs of one benchmark workload.
#
#   scripts/pairs.sh REV WORKLOAD N [SEED] [FLAG...]
#   scripts/pairs.sh HEAD~1 scan-read 10 1
#   scripts/pairs.sh HEAD scan-read 1 1 -smoke      # does the script run?
#
# Builds the repository benchmark (benchmark/, declared by
# BENCHMARK.json) once at git revision REV ("base") and once from the
# working tree ("work"), then runs WORKLOAD untraced N times on each
# side, in pairs whose first run alternates between the sides. Any
# FLAG after the seed is passed to every run.
#
# It prints each run's four end-to-end metrics and failed-operation
# count, then per metric each side's median and quartiles, the number
# of pairs the working tree won in the metric's better direction (a tie
# is no win), the median paired difference (work minus base, in the
# metric's unit) and the two-sided sign-test p-value of the wins over
# the pairs that did not tie (1 when every pair tied). It exits
# non-zero when a build fails, a run fails, or a run reports failed
# operations.
set -euo pipefail

if [ $# -lt 3 ]; then
	sed -n '3,5p' "$0" >&2
	exit 2
fi
rev=$1 workload=$2 n=$3 seed=${4:-1}
shift $(($# < 4 ? $# : 4))
flags=("$@")

# The end-to-end metrics of BENCHMARK.json and their better directions.
metrics=(ops_per_s light_p50_us heavy_p50_us setup_s)
better=(higher lower lower lower)

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The base is exported with git archive, so nothing is added to the
# repository's own worktree or metadata.
mkdir -p "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"
go build -C "$tmp/base/benchmark" -o "$tmp/base.bin" .
go build -C "$root/benchmark" -o "$tmp/work.bin" .

# run SIDE PAIR: one untraced run; appends "v1 v2 v3 v4 failed" to
# $tmp/SIDE.tsv and prints the same line.
run() {
	local side=$1 dir
	case $side in
	base) dir=$tmp/base/benchmark ;;
	work) dir=$root/benchmark ;;
	esac
	local line
	line=$(cd "$dir" && "$tmp/$side.bin" --workload "$workload" --seed "$seed" --trace 0 \
		-out "$tmp/out-$side" ${flags[@]+"${flags[@]}"} | tail -n 1)
	local vals=() m v
	for m in "${metrics[@]}"; do
		v=$(printf '%s' "$line" | grep -o "\"$m\":{\"value\":[^,}]*" | sed 's/.*://')
		if [ -z "$v" ]; then
			echo "pairs: $side run printed no $m: $line" >&2
			exit 1
		fi
		vals+=("$v")
	done
	local failed
	failed=$(printf '%s' "$line" | grep -o '"failed":[0-9]*' | sed 's/.*://')
	echo "${vals[*]} $failed" >>"$tmp/$side.tsv"
	printf '  %-4s' "$side"
	local i
	for i in "${!metrics[@]}"; do
		printf ' %s=%.6g' "${metrics[$i]}" "${vals[$i]}"
	done
	printf ' failed=%s\n' "$failed"
	if [ "$failed" != 0 ]; then
		echo "pairs: $side run reported $failed failed operations" >&2
		exit 1
	fi
}

echo "workload $workload, seed $seed, $n pairs: base $rev ($(git -C "$root" rev-parse --short "$rev")) vs work (working tree)${flags[*]:+, flags ${flags[*]}}"
for ((p = 1; p <= n; p++)); do
	if ((p % 2)); then order=(base work); else order=(work base); fi
	echo "pair $p (${order[0]} first)"
	run "${order[0]}"
	run "${order[1]}"
done

# summary COLUMN: median and quartiles (medians of the lower and upper
# halves) of one column of a side's runs.
summary() {
	cut -d' ' -f"$1" "$2" | sort -g | awk '
		function med(lo, hi,   k) { k = hi - lo + 1; return k % 2 ? v[lo + (k - 1) / 2] : (v[lo + k / 2 - 1] + v[lo + k / 2]) / 2 }
		{ v[NR] = $1 }
		END {
			h = int(NR / 2)
			q1 = NR > 1 ? med(1, h) : v[1]
			q3 = NR > 1 ? med(NR - h + 1, NR) : v[1]
			printf "%.6g [%.6g, %.6g]", med(1, NR), q1, q3
		}'
}

# paired COLUMN DIR: the work side's wins out of the pairs, the median
# paired difference (work - base) and the two-sided sign-test p-value:
# under "no difference" each untied pair is a fair coin, so p is twice
# the binomial tail of the rarer outcome, capped at 1.
paired() {
	paste -d' ' <(cut -d' ' -f"$1" "$tmp/base.tsv") <(cut -d' ' -f"$1" "$tmp/work.tsv") |
		awk -v dir="$2" '
		{
			d[NR] = $2 - $1
			if ((dir == "higher" && $2 > $1) || (dir == "lower" && $2 < $1)) w++
			else if ($2 != $1) l++
		}
		END {
			for (i = 2; i <= NR; i++)
				for (j = i; j > 1 && d[j - 1] > d[j]; j--) { t = d[j]; d[j] = d[j - 1]; d[j - 1] = t }
			med = NR % 2 ? d[(NR + 1) / 2] : (d[NR / 2] + d[NR / 2 + 1]) / 2
			m = w + l; k = w < l ? w : l; tail = 0; c = 1
			for (i = 0; i <= k; i++) { tail += c; c = c * (m - i) / (i + 1) }
			p = m ? 2 * tail / 2 ^ m : 1
			if (p > 1) p = 1
			printf "%d/%d %.6g %.3g", w, NR, med, p
		}'
}

echo
printf '%-14s %-7s %-34s %-34s %-9s %-14s %s\n' metric better "base median [q1, q3]" "work median [q1, q3]" "work wins" "median diff" "sign p"
for i in "${!metrics[@]}"; do
	col=$((i + 1))
	read -r wins diff p <<<"$(paired "$col" "${better[$i]}")"
	printf '%-14s %-7s %-34s %-34s %-9s %-14s %s\n' "${metrics[$i]}" "${better[$i]}" \
		"$(summary "$col" "$tmp/base.tsv")" "$(summary "$col" "$tmp/work.tsv")" "$wins" "$diff" "$p"
done
