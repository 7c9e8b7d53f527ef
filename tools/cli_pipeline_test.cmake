# simulate -> analyze round trip through real files, plus (in the default
# invocation only) the CLI's rejection paths: unknown flags, out-of-range
# values and corrupt trace fixtures must all exit non-zero.

# Negative coverage runs once — the align re-invocation passes ESTIMATOR
# and only re-checks the round trip.
if(NOT DEFINED ESTIMATOR)
  set(run_negative TRUE)
  set(ESTIMATOR mle)
else()
  set(run_negative FALSE)
endif()

execute_process(
  COMMAND ${CCAP_BIN} simulate --pd 0.15 --pi 0.05 --bits 2 --len 4000 --seed 9
          --sent ${WORK_DIR}/cli_sent.txt --received ${WORK_DIR}/cli_recv.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate failed: ${rc}")
endif()
execute_process(
  COMMAND ${CCAP_BIN} analyze --sent ${WORK_DIR}/cli_sent.txt
          --received ${WORK_DIR}/cli_recv.txt --bits 2 --estimator ${ESTIMATOR}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "analyze failed: ${rc}")
endif()
if(NOT out MATCHES "P_d = 0\\.1")
  message(FATAL_ERROR "analyze did not recover P_d ~ 0.15: ${out}")
endif()

if(NOT run_negative)
  return()
endif()

# Helper: the command must fail with the expected exit code and mention
# the expected text on stderr.
function(ccap_expect_failure expected_rc expected_match)
  execute_process(
    COMMAND ${CCAP_BIN} ${ARGN}
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR
      "'ccap ${ARGN}' exited ${rc}, expected ${expected_rc} (${err})")
  endif()
  if(NOT err MATCHES "${expected_match}")
    message(FATAL_ERROR
      "'ccap ${ARGN}' stderr did not match '${expected_match}': ${err}")
  endif()
endfunction()

# Unknown flag: usage error, exit 2, one-line usage hint.
ccap_expect_failure(2 "unknown option --theads.*usage: ccap"
  mi --theads 4)
# Malformed value: strict numeric parse rejects trailing garbage.
ccap_expect_failure(2 "expects a number"
  bounds --pd 0.2x)
# An empty value is no number: neither P_d = 0 nor seed 0. The empty token
# is passed quoted, since an unquoted ${ARGN} would drop it.
execute_process(COMMAND ${CCAP_BIN} bounds --pd ""
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--pd expects a number, got ''")
  message(FATAL_ERROR "'ccap bounds --pd \"\"' exited ${rc}, expected 2 (${err})")
endif()
execute_process(COMMAND ${CCAP_BIN} mi --seed "" --blocks 2 --block 16
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--seed expects a number, got ''")
  message(FATAL_ERROR "'ccap mi --seed \"\"' exited ${rc}, expected 2 (${err})")
endif()
# Out-of-range values: negative counts and infeasible probabilities.
ccap_expect_failure(2 "non-negative integer"
  mi --threads -2)
ccap_expect_failure(1 "exceeds 1"
  bounds --pd 0.8 --pi 0.6)
# --bits is range-checked ([1,16]) before any command forms the alphabet
# 1 << bits: out-of-range widths are usage errors, never a silently
# wrapped alphabet. The drift lattice holds one symbol per byte, so every
# command that runs it (mi, track, sweep with an MC column) takes [1,8].
ccap_expect_failure(2 "--bits expects an integer in \\[1,8\\]"
  mi --bits 40)
ccap_expect_failure(2 "--bits expects an integer in \\[1,8\\]"
  mi --bits 32)
ccap_expect_failure(2 "--bits expects an integer in \\[1,16\\]"
  sweep --bits 40)
ccap_expect_failure(2 "--bits expects an integer in \\[1,8\\]"
  track --sent ${WORK_DIR}/cli_sent.txt --received ${WORK_DIR}/cli_recv.txt
        --bits 40)
ccap_expect_failure(2 "--bits expects an integer in \\[1,8\\]"
  mi --bits 9 --pd 0.1 --pi 0.05 --blocks 4 --block 32)
ccap_expect_failure(2 "--bits expects an integer in \\[1,8\\]"
  track --pd 0.2 --windows 2 --bits 9)
ccap_expect_failure(2 "--bits expects an integer in \\[1,8\\]"
  sweep --bits 9 --mi-blocks 2)
# The closed-form sweep (no MC column) never touches the lattice and
# keeps the full 1..16 range.
execute_process(
  COMMAND ${CCAP_BIN} sweep --bits 9
  OUTPUT_VARIABLE sweep9_out
  ERROR_VARIABLE sweep9_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT sweep9_out MATCHES "p_d,p_i,thm5_lower")
  message(FATAL_ERROR "'ccap sweep --bits 9' exited ${rc}: ${sweep9_err}")
endif()
# Counts must fit their destination type: no undefined double->integer
# cast past 2^64, no truncation of a 64-bit value into a 32-bit field.
ccap_expect_failure(2 "--threads expects an integer at most 4294967295"
  mi --threads 1e20)
ccap_expect_failure(2 "--threads expects an integer at most 4294967295"
  mi --threads 4294967297)
# CRN point tiling: malformed width is a usage error, and the flag only
# exists on the grid commands (sweep, contend).
ccap_expect_failure(2 "mc-point-tile expects a non-negative integer or 'auto'"
  sweep --mi-blocks 2 --mc-point-tile fast)
ccap_expect_failure(2 "unknown option --mc-point-tile"
  mi --mc-point-tile 4)
# Every lattice pass is exact: adaptive-band pruning is not a flag, and
# --band-eps is an unknown option like any other.
ccap_expect_failure(2 "unknown option --band-eps"
  mi --band-eps 0)
ccap_expect_failure(2 "unknown option --band-eps"
  sweep --mi-blocks 2 --band-eps 0)
# The Monte-Carlo tile width is not a flag: --mc-batch is an unknown
# option like any other.
ccap_expect_failure(2 "unknown option --mc-batch"
  mi --mc-batch 4)
# --markov-stay Q is a stay probability of a binary source: a value
# outside [0,1], or the flag on a non-binary alphabet, is a usage error
# (never a silent iid run or a library error).
ccap_expect_failure(2 "--markov-stay expects a value in \\[0,1\\]"
  mi --markov-stay -0.5)
ccap_expect_failure(2 "--markov-stay expects a value in \\[0,1\\]"
  mi --markov-stay 1.5)
ccap_expect_failure(2 "--markov-stay needs --bits 1"
  mi --markov-stay 0.8 --bits 2)
# A grid step so fine that the capacity grid's index range overflows int32
# fails with an error that names the grid step.
ccap_expect_failure(1 "grid step pd_step = 1e-300 is too fine"
  contend --grid-step 1e-300 --flows 64)
ccap_expect_failure(1 "grid step pd_step = 1e-300 is too fine"
  track --pd 0.2 --windows 2 --grid-step 1e-300)
# Truncated trace fixture: the framed header promises more symbols than
# the file holds -> typed trace error, exit 1.
file(WRITE ${WORK_DIR}/cli_truncated.txt
  "# torn write fixture\n# ccap-trace v1 count=9\n1\n2\n3\n")
ccap_expect_failure(1 "trace truncated"
  analyze --sent ${WORK_DIR}/cli_truncated.txt
          --received ${WORK_DIR}/cli_recv.txt --bits 2)
ccap_expect_failure(1 "trace unreadable"
  analyze --sent ${WORK_DIR}/does_not_exist.txt
          --received ${WORK_DIR}/cli_recv.txt --bits 2)
# The estimators are mle and align; any other name is a usage error.
ccap_expect_failure(2 "unknown --estimator \\(use mle or align\\)"
  analyze --sent ${WORK_DIR}/cli_sent.txt
          --received ${WORK_DIR}/cli_recv.txt --bits 2 --estimator em)

# `mi` reports the worker count the run used: the --threads cap, or one
# per hardware thread for the default 0 (never a literal 0).
execute_process(
  COMMAND ${CCAP_BIN} mi --pd 0.1 --block 16 --blocks 2
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "threads: [1-9][0-9]*\n")
  message(FATAL_ERROR "mi did not report a resolved worker count: ${rc} ${out}")
endif()
execute_process(
  COMMAND ${CCAP_BIN} mi --pd 0.1 --block 16 --blocks 2 --threads 3
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "threads: 3\n")
  message(FATAL_ERROR "mi --threads 3 did not report 3 workers: ${rc} ${out}")
endif()

# `mi` counts the blocks scored 0 bits because their received length left
# the drift window: none on a mild channel, every one at P_d = 0.5, whose
# mean end drift (-64 over 128 symbols) lies past max_drift 48.
if(NOT out MATCHES "truncated: 0 of 2 blocks")
  message(FATAL_ERROR "mi did not report zero truncated blocks: ${out}")
endif()
execute_process(
  COMMAND ${CCAP_BIN} mi --pd 0.5 --blocks 4
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "truncated: 4 of 4 blocks")
  message(FATAL_ERROR "mi --pd 0.5 did not report 4 of 4 truncated blocks: ${rc} ${out}")
endif()

# Integer flags parse their decimal digits exactly: a seed past 2^53 must
# not round onto its neighbor through a double, so adjacent seeds there
# give different estimates.
foreach(seed 9007199254740992 9007199254740993)
  execute_process(
    COMMAND ${CCAP_BIN} mi --pd 0.2 --pi 0.05 --block 16 --blocks 4 --seed ${seed}
    OUTPUT_VARIABLE mi_seed_${seed}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mi --seed ${seed} failed: ${rc}")
  endif()
endforeach()
if(mi_seed_9007199254740992 STREQUAL mi_seed_9007199254740993)
  message(FATAL_ERROR
    "mi --seed 2^53 and 2^53 + 1 printed the same estimate: ${mi_seed_9007199254740993}")
endif()
ccap_expect_failure(2 "--seed expects an integer at most 18446744073709551615"
  mi --seed 18446744073709551616)

# --verbose reports the Monte-Carlo shape the command hands to the engine.
# contend's CRN sweeps pack crn_sweep_blocks blocks x the point tile (4 x 8
# lanes on the scalar path at the default options) and warm the nodes with
# the --threads workers; track reports its prefetch workers.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CCAP_SIMD=scalar
          ${CCAP_BIN} contend --flows 256 --mc-point-tile auto --threads 3 --verbose
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "# mc tile: 32 lanes x 3 threads\n")
  message(FATAL_ERROR "contend --verbose misreported its MC shape: ${rc} ${out}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CCAP_SIMD=scalar
          ${CCAP_BIN} track --pd 0.2 --windows 1 --threads 3 --verbose
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT err MATCHES "# mc tile: 8 lanes x 3 threads\n")
  message(FATAL_ERROR "track --verbose misreported its MC shape: ${rc} ${err}")
endif()

# CRN sweep smoke: the verbose tile report lands on stderr, the CSV stays
# on stdout and carries the MI column.
execute_process(
  COMMAND ${CCAP_BIN} sweep --mi-blocks 2 --mi-block-len 16 --mc-point-tile auto
          --threads 2 --verbose
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep --mc-point-tile auto failed: ${rc} (${err})")
endif()
if(NOT err MATCHES "# mc point tile: [0-9]+ points/sweep \\(crn, requested auto\\)")
  message(FATAL_ERROR "sweep --verbose printed no point-tile report: ${err}")
endif()
if(NOT err MATCHES "# mc truncated: [0-9]+ of [0-9]+ blocks at [0-9]+ of 77 points")
  message(FATAL_ERROR "sweep --verbose printed no truncation count: ${err}")
endif()
if(NOT out MATCHES "p_d,p_i,thm5_lower,exact,thm1_upper,degraded,mc_mi")
  message(FATAL_ERROR "sweep CSV header missing mc_mi column: ${out}")
endif()

# contend thread invariance: the traffic slices run on the pool and the
# capacity nodes are evaluated in parallel, yet stdout must be
# byte-identical at one worker and at four.
set(contend_flags --flows 20000 --load 1.3 --deadline 8 --queue-cap 4)
foreach(workers 1 4)
  execute_process(
    COMMAND ${CCAP_BIN} contend ${contend_flags} --threads ${workers}
    OUTPUT_VARIABLE contend_out_${workers}
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "contend --threads ${workers} failed: ${rc} (${err})")
  endif()
endforeach()
if(NOT contend_out_1 MATCHES "traffic: offered [1-9]")
  message(FATAL_ERROR "contend printed no traffic report: ${contend_out_1}")
endif()
if(NOT contend_out_1 STREQUAL contend_out_4)
  message(FATAL_ERROR
    "contend stdout differs between --threads 1 and 4:\n${contend_out_1}\nvs\n${contend_out_4}")
endif()

# sweep identity: the adaptive Monte-Carlo column reads the uniform-prior
# marginal from a per-point memo keyed by received length, yet stdout must
# be byte-identical at one worker and at four, and with the dispatch
# pinned to the scalar kernels (whose tile width differs).
set(sweep_cmd ${CCAP_BIN} sweep --mi-blocks 4 --mi-block-len 32 --mc-target-sem 0.05)
set(sweep_variant_t1 ${sweep_cmd} --threads 1)
set(sweep_variant_t4 ${sweep_cmd} --threads 4)
set(sweep_variant_scalar ${CMAKE_COMMAND} -E env CCAP_SIMD=scalar ${sweep_cmd} --threads 4)
foreach(variant t1 t4 scalar)
  execute_process(
    COMMAND ${sweep_variant_${variant}}
    OUTPUT_VARIABLE sweep_out_${variant}
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep (${variant}) failed: ${rc} (${err})")
  endif()
endforeach()
if(NOT sweep_out_t1 MATCHES "p_d,p_i,thm5_lower,exact,thm1_upper,degraded,mc_mi")
  message(FATAL_ERROR "sweep printed no CSV: ${sweep_out_t1}")
endif()
foreach(variant t4 scalar)
  if(NOT sweep_out_t1 STREQUAL sweep_out_${variant})
    message(FATAL_ERROR
      "sweep stdout differs between t1 and ${variant}:\n${sweep_out_t1}\nvs\n${sweep_out_${variant}}")
  endif()
endforeach()

# mi thread identity: the single-point estimator runs its tiles
# concurrently against one shared length memo. stdout must agree at one
# worker and at four once the reported worker count is masked.
foreach(workers 1 4)
  execute_process(
    COMMAND ${CCAP_BIN} mi --pd 0.2 --pi 0.1 --ps 0.02 --block 32 --blocks 4
            --mc-target-sem 0.02 --threads ${workers}
    OUTPUT_VARIABLE mi_out_${workers}
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mi --threads ${workers} failed: ${rc} (${err})")
  endif()
  string(REGEX REPLACE "threads: [0-9]+" "threads: N" mi_out_${workers} "${mi_out_${workers}}")
endforeach()
if(NOT mi_out_1 MATCHES "achievable rate: ")
  message(FATAL_ERROR "mi printed no rate: ${mi_out_1}")
endif()
if(NOT mi_out_1 STREQUAL mi_out_4)
  message(FATAL_ERROR "mi stdout differs between --threads 1 and 4:\n${mi_out_1}\nvs\n${mi_out_4}")
endif()

# mi Markov identity: Markov inputs run through the same tile loop as iid
# ones, with a per-lane joint marginal. stdout must agree at one worker,
# at four, and with the dispatch pinned to the scalar kernels, once the
# reported worker count is masked.
set(markov_cmd ${CCAP_BIN} mi --markov-stay 0.8 --block 32 --blocks 6 --mc-target-sem 0.02)
set(markov_variant_t1 ${markov_cmd} --threads 1)
set(markov_variant_t4 ${markov_cmd} --threads 4)
set(markov_variant_scalar ${CMAKE_COMMAND} -E env CCAP_SIMD=scalar ${markov_cmd} --threads 4)
foreach(variant t1 t4 scalar)
  execute_process(
    COMMAND ${markov_variant_${variant}}
    OUTPUT_VARIABLE markov_out_${variant}
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mi --markov-stay (${variant}) failed: ${rc} (${err})")
  endif()
  string(REGEX REPLACE "threads: [0-9]+" "threads: N" markov_out_${variant}
         "${markov_out_${variant}}")
endforeach()
if(NOT markov_out_t1 MATCHES "achievable rate: ")
  message(FATAL_ERROR "mi --markov-stay printed no rate: ${markov_out_t1}")
endif()
foreach(variant t4 scalar)
  if(NOT markov_out_t1 STREQUAL markov_out_${variant})
    message(FATAL_ERROR
      "mi --markov-stay stdout differs between t1 and ${variant}:\n${markov_out_t1}\nvs\n${markov_out_${variant}}")
  endif()
endforeach()

# analyze SIMD identity: the MLE search scores its blocks on the
# dispatched lane kernels, yet stdout must be byte-identical on the
# default path and with the dispatch pinned to the scalar kernels.
execute_process(
  COMMAND ${CCAP_BIN} analyze --sent ${WORK_DIR}/cli_sent.txt
          --received ${WORK_DIR}/cli_recv.txt --bits 2
  OUTPUT_VARIABLE analyze_out_default
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "analyze (default SIMD path) failed: ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CCAP_SIMD=scalar
          ${CCAP_BIN} analyze --sent ${WORK_DIR}/cli_sent.txt
          --received ${WORK_DIR}/cli_recv.txt --bits 2
  OUTPUT_VARIABLE analyze_out_scalar
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "analyze under CCAP_SIMD=scalar failed: ${rc}")
endif()
if(NOT analyze_out_default STREQUAL analyze_out_scalar)
  message(FATAL_ERROR
    "analyze stdout differs under CCAP_SIMD=scalar:\n${analyze_out_default}\nvs\n${analyze_out_scalar}")
endif()

# analyze at (0.20, 0.10, 0.05): the MLE's Newton fit starts on a shifted
# Hessian there, and must still exit 0 and print its one-line fit summary.
execute_process(
  COMMAND ${CCAP_BIN} simulate --pd 0.20 --pi 0.10 --ps 0.05 --bits 1 --len 4096 --seed 1
          --sent ${WORK_DIR}/cli_noisy_sent.txt --received ${WORK_DIR}/cli_noisy_recv.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate (0.20, 0.10, 0.05) failed: ${rc}")
endif()
execute_process(
  COMMAND ${CCAP_BIN} analyze --sent ${WORK_DIR}/cli_noisy_sent.txt
          --received ${WORK_DIR}/cli_noisy_recv.txt --bits 1
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "analyze on the (0.20, 0.10, 0.05) pair failed: ${rc}")
endif()
if(NOT out MATCHES "likelihood fit: [0-9]+ Newton iterations, (converged|not converged), log2-likelihood -[0-9]+\\.[0-9]+ bits")
  message(FATAL_ERROR "analyze did not print the fit line: ${out}")
endif()

# Hardened-protocol smoke: lossy-link stop-and-wait must stay reliable and
# report a predicted rate from the closed form.
execute_process(
  COMMAND ${CCAP_BIN} protocol --proto saw --pd 0.2 --p-ack-loss 0.2
          --ack-delay 2 --timeout 6 --len 4000 --seed 5
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "protocol saw failed: ${rc}")
endif()
if(NOT out MATCHES "reliable: yes")
  message(FATAL_ERROR "hardened saw was not reliable: ${out}")
endif()
if(NOT out MATCHES "predicted rate:")
  message(FATAL_ERROR "protocol saw printed no prediction: ${out}")
endif()
# Infeasible hardened options (timeout below the link's worst-case
# latency) are a runtime failure, not a hang.
ccap_expect_failure(1 "timeout"
  protocol --proto saw --ack-delay 9 --timeout 4)

# ---------------------------------------------------------------------------
# track: online capacity tracker — checkpoint round trip through real files
# and its rejection paths.
# ---------------------------------------------------------------------------

# Unknown flag and unknown fault-profile preset are usage errors (exit 2);
# the help text must list every preset by name.
ccap_expect_failure(2 "unknown option --checkpont"
  track --pd 0.2 --windows 2 --checkpont ${WORK_DIR}/x.ckpt)
ccap_expect_failure(2 "unknown --profile 'hurricane'.*storms.*drift.*stuck"
  track --pd 0.2 --windows 2 --profile hurricane)
ccap_expect_failure(2 "unknown --profile"
  protocol --proto saw --profile hurricane)
execute_process(COMMAND ${CCAP_BIN} help ERROR_VARIABLE help_text)
if(NOT help_text MATCHES "--profile presets.*none.*storms.*drift.*stuck")
  message(FATAL_ERROR "help does not list the fault-profile presets: ${help_text}")
endif()

# Live run writing a checkpoint, then a bit-identical resume: the resumed
# run's final report must equal the uninterrupted run's.
set(track_flags --pd 0.2 --window 800 --grid-step 0.05 --mi-block 16
    --mi-blocks 4 --seed 3 --status-every 0)
execute_process(
  COMMAND ${CCAP_BIN} track ${track_flags} --windows 8
  OUTPUT_VARIABLE full_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "track full run failed: ${rc}")
endif()
execute_process(
  COMMAND ${CCAP_BIN} track ${track_flags} --windows 4
          --checkpoint ${WORK_DIR}/cli_track.ckpt
  OUTPUT_VARIABLE ckpt_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "track checkpoint run failed: ${rc}")
endif()
execute_process(
  COMMAND ${CCAP_BIN} track ${track_flags} --windows 8
          --resume ${WORK_DIR}/cli_track.ckpt
  OUTPUT_VARIABLE resumed_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "track resume run failed: ${rc}")
endif()
if(NOT full_out MATCHES "track finished after 8 windows: (capacity [^\n]+)")
  message(FATAL_ERROR "track full run printed no final report: ${full_out}")
endif()
set(full_report "${CMAKE_MATCH_1}")
if(NOT resumed_out MATCHES "track finished after 8 windows: (capacity [^\n]+)")
  message(FATAL_ERROR "track resume printed no final report: ${resumed_out}")
endif()
if(NOT full_report STREQUAL CMAKE_MATCH_1)
  message(FATAL_ERROR
    "resumed track diverged from the uninterrupted run:\n${full_out}\nvs\n${resumed_out}")
endif()

# Resume with no window left to ingest: the final report is the
# checkpointed one, not a zeroed warmup line.
execute_process(
  COMMAND ${CCAP_BIN} track ${track_flags} --windows 4
          --resume ${WORK_DIR}/cli_track.ckpt
  OUTPUT_VARIABLE at_end_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "track resume-at-end run failed: ${rc}")
endif()
if(NOT ckpt_out MATCHES "(track finished after 4 windows: [^\n]+)")
  message(FATAL_ERROR "track checkpoint run printed no final report: ${ckpt_out}")
endif()
set(ckpt_report "${CMAKE_MATCH_1}")
if(NOT at_end_out MATCHES "(track finished after 4 windows: [^\n]+)"
   OR NOT ckpt_report STREQUAL CMAKE_MATCH_1)
  message(FATAL_ERROR
    "resume at the stream's end lost the final report:\n${ckpt_out}\nvs\n${at_end_out}")
endif()

# Golden pins: the exact stdout of a live drift run and of `windows` on the
# trace pair above. The alignment kernel and the stream loop must keep
# every byte; a change that moves one has to say why and re-pin.
execute_process(
  COMMAND ${CCAP_BIN} track --pd 0.1 --profile drift --windows 12 --window 800
          --grid-step 0.05 --mi-block 16
  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
set(expected [=[
window 0 warmup   P_d 0.1000 P_i 0.0000 cap 0.5765 +-0.2241 bits/use served 0.0200 slope +0.00000 resyncs 0
window 1 warmup   P_d 0.1300 P_i 0.0000 cap 0.5390 +-0.1844 bits/use served 0.0400 slope +0.00000 resyncs 0
window 2 resync   P_d 0.2050 P_i 0.0000 cap 0.4749 +-0.1770 bits/use served 0.0340 slope +0.05250 resyncs 1
window 3 resync   P_d 0.2825 P_i 0.0000 cap 0.2703 +-0.1565 bits/use served 0.0289 slope +0.06225 resyncs 2
window 4 drifting P_d 0.3113 P_i 0.0000 cap 0.2703 +-0.1311 bits/use served 0.0246 slope +0.05750 resyncs 2
window 5 drifting P_d 0.3300 P_i 0.0000 cap 0.2470 +-0.1091 bits/use served 0.0209 slope +0.05061 resyncs 2
window 6 drifting P_d 0.2725 P_i 0.0000 cap 0.2595 +-0.1067 bits/use served 0.0177 slope +0.03656 resyncs 2
window 7 resync   P_d 0.2288 P_i 0.0000 cap 0.2886 +-0.1794 bits/use served 0.0151 slope +0.02402 resyncs 3
window 8 resync   P_d 0.1562 P_i 0.0000 cap 0.4514 +-0.2393 bits/use served 0.0128 slope +0.00347 resyncs 4
window 9 tracking P_d 0.1075 P_i 0.0000 cap 0.4889 +-0.1924 bits/use served 0.0328 slope -0.01927 resyncs 4
window 10 tracking P_d 0.1138 P_i 0.0000 cap 0.5152 +-0.1625 bits/use served 0.0528 slope -0.03292 resyncs 4
window 11 drifting P_d 0.1400 P_i 0.0000 cap 0.4961 +-0.1471 bits/use served 0.0449 slope -0.03390 resyncs 4
track finished after 12 windows: capacity 0.4961 +-0.1471 bits/use, served 0.0449, resyncs 4, status drifting
]=])
if(NOT rc EQUAL 0 OR NOT out STREQUAL expected)
  message(FATAL_ERROR "track drift run moved off its pinned output (${rc}):\n${out}")
endif()
execute_process(
  COMMAND ${CCAP_BIN} windows --sent ${WORK_DIR}/cli_sent.txt
          --received ${WORK_DIR}/cli_recv.txt
  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
set(expected [=[
window,p_d,p_i,p_s
0,0.1190,0.0244,0.0490
1,0.1262,0.0291,0.0391
2,0.1304,0.0196,0.0611
3,0.1135,0.0215,0.0430
# no P_d changepoint detected
]=])
if(NOT rc EQUAL 0 OR NOT out STREQUAL expected)
  message(FATAL_ERROR "windows moved off its pinned output (${rc}):\n${out}")
endif()

# Corrupt checkpoints: typed errors, exit 1, the kind named on stderr.
file(WRITE ${WORK_DIR}/cli_track_torn.ckpt
  "# ccap-track v1 fields=9\nfingerprint 1\n")
ccap_expect_failure(1 "checkpoint truncated"
  track --pd 0.2 --windows 2 --resume ${WORK_DIR}/cli_track_torn.ckpt)
file(WRITE ${WORK_DIR}/cli_track_v9.ckpt "# ccap-track v9 fields=0\n")
ccap_expect_failure(1 "checkpoint version mismatch"
  track --pd 0.2 --windows 2 --resume ${WORK_DIR}/cli_track_v9.ckpt)
ccap_expect_failure(1 "checkpoint unreadable"
  track --pd 0.2 --windows 2 --resume ${WORK_DIR}/cli_track_missing.ckpt)
# A checkpoint from another configuration: fingerprint mismatch, malformed.
ccap_expect_failure(1 "checkpoint malformed.*different tracker configuration"
  track ${track_flags} --windows 2 --window 999
        --resume ${WORK_DIR}/cli_track.ckpt)

# The live channel's flags are usage errors next to a trace pair, not
# silently ignored.
ccap_expect_failure(2 "option --windows configures the live channel"
  track --sent ${WORK_DIR}/cli_sent.txt --received ${WORK_DIR}/cli_recv.txt
        --windows 4)
ccap_expect_failure(2 "option --pd configures the live channel"
  track --sent ${WORK_DIR}/cli_sent.txt --received ${WORK_DIR}/cli_recv.txt
        --pd 0.2)

# Trace mode: the tracker over simulated files ends cleanly.
execute_process(
  COMMAND ${CCAP_BIN} track --sent ${WORK_DIR}/cli_sent.txt
          --received ${WORK_DIR}/cli_recv.txt --bits 2 --window 800
          --grid-step 0.05 --mi-block 16 --mi-blocks 4 --status-every 2
  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "track trace mode failed: ${rc}")
endif()
if(NOT out MATCHES "track finished after 5 windows")
  message(FATAL_ERROR "track trace mode did not ingest 5 windows: ${out}")
endif()

# An alignment window beyond the 4e8-cell trellis cap is refused before
# anything is allocated, with an error naming the window's size — never a
# multi-GB allocation attempt.
ccap_expect_failure(1 "alignment window of 100000 x [0-9]+ symbols exceeds the 400000000-cell limit"
  track --pd 0.1 --window 100000 --windows 1)
execute_process(
  COMMAND ${CCAP_BIN} simulate --pd 0.1 --len 30000 --seed 3
          --sent ${WORK_DIR}/cli_long_sent.txt --received ${WORK_DIR}/cli_long_recv.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate (long trace) failed: ${rc}")
endif()
ccap_expect_failure(1 "alignment window of 30000 x [0-9]+ symbols exceeds the 400000000-cell limit"
  windows --sent ${WORK_DIR}/cli_long_sent.txt --received ${WORK_DIR}/cli_long_recv.txt
          --window 30000)
