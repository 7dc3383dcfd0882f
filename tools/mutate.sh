#!/bin/sh
# mutate.sh re-runs the recorded mutants. Each tools/mutants/<name>.patch
# breaks the code on purpose; its header names the package (Package:)
# and the -run pattern (Run:) of the tests that must catch the break.
# For each patch the working tree is copied to .bench_build/mutants/<name>,
# the patch is applied there with git apply, and the tests run with
# -count=1. The mutant is
#
#   KILLED    a test failed;
#   SURVIVED  the tests passed: they no longer catch the break;
#   STALE     the patch no longer applies, the patched copy does not
#             build, or the pattern runs no test: refresh the patch.
#
# It exits 1 if any mutant survived or is stale. The test output of each
# mutant is kept in .bench_build/mutants/<name>.log.
#
# Usage, from the repository: sh tools/mutate.sh [name ...]
# (no names runs every patch).
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
work=$root/.bench_build/mutants
mkdir -p "$work"
if [ $# -eq 0 ]; then
	set -- $(cd "$root/tools/mutants" && ls -- *.patch | sed 's/\.patch$//')
fi
status=0
for name in "$@"; do
	patch=$root/tools/mutants/$name.patch
	dir=$work/$name
	log=$work/$name.log
	if [ ! -f "$patch" ]; then
		echo "STALE     $name: no $patch"
		status=1
		continue
	fi
	pkg=$(sed -n 's/^Package: //p' "$patch" | head -n 1)
	run=$(sed -n 's/^Run: //p' "$patch" | head -n 1)
	rm -rf "$dir"
	mkdir -p "$dir"
	# The tree as it stands, tracked and untracked files alike, but
	# nothing git ignores.
	(cd "$root" && git ls-files --cached --others --exclude-standard |
		while IFS= read -r f; do [ -f "$f" ] && printf '%s\n' "$f"; done |
		tar -cf - -T -) | (cd "$dir" && tar -xf -)
	# The copy sits inside this repository's working tree; the ceiling
	# keeps git apply from finding the repository and patching it.
	if ! (cd "$dir" && GIT_CEILING_DIRECTORIES=$work git apply "$patch") > "$log" 2>&1; then
		echo "STALE     $name: the patch no longer applies (see $log)"
		status=1
		rm -rf "$dir"
		continue
	fi
	(cd "$dir" && go test -count=1 -timeout 120s -run "$run" "$pkg") >> "$log" 2>&1
	code=$?
	rm -rf "$dir"
	if grep -q -e '\[build failed\]' -e '\[setup failed\]' "$log"; then
		echo "STALE     $name: the patched copy does not build (see $log)"
		status=1
	elif [ $code -ne 0 ]; then
		echo "KILLED    $name: $pkg -run '$run' failed"
	elif grep -q '\[no tests to run\]' "$log"; then
		echo "STALE     $name: -run '$run' runs no test in $pkg"
		status=1
	else
		echo "SURVIVED  $name: $pkg -run '$run' passed"
		status=1
	fi
done
exit $status
