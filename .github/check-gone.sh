#!/usr/bin/env bash
# Fail when a name listed in .github/gone.tsv (or the list given as the
# first argument) is back. Run from the repository root.
set -u
list=${1:-.github/gone.tsv}
status=0
while IFS=$'\t' read -r pattern paths why; do
  case $pattern in '' | '#'*) continue ;; esac
  in=() out=()
  for p in $paths; do
    case $p in
      '!'*) out+=(-e "^${p#!}") ;;
      *)
        [ -e "$p" ] || { echo "$list: $p does not exist"; status=1; }
        in+=("$p")
        ;;
    esac
  done
  hits=$(grep -rnE -- "$pattern" "${in[@]}" 2>/dev/null)
  if [ ${#out[@]} -gt 0 ] && [ -n "$hits" ]; then
    hits=$(printf '%s\n' "$hits" | grep -v "${out[@]}")
  fi
  if [ -n "$hits" ]; then
    printf '%s\n' "$hits"
    echo "^ $pattern is back (DESIGN $why)"
    status=1
  fi
done < "$list"
exit $status
