/**
 * @file
 * The shipped transition tables for the table-driven engine.
 *
 * twoBitTable() re-expresses the paper's §3 two-bit broadcast scheme
 * as data and is held bit-identical to core/two_bit_protocol.cc,
 * counter for counter, by the cross-interpreter lockstep differ
 * (check/differ.hh).  fullMapTable() is the Censier-Feautrier full
 * map (§2.4.2) and its only implementation: the factory registers it
 * as full_map and full_map_table, and as dup_dir under Tang's derived
 * accounting (proto/dup_dir.hh).
 *
 * The third is the proof that new protocols are now data only:
 *
 *   moesiTable()    a directory MOESI with an Owned state and
 *                   cache-to-cache supply — zero interpreter changes,
 *                   26 rows.
 *
 * See docs/TABLE_ENGINE.md for the row format and how to add another.
 */

#ifndef DIR2B_PROTO_TABLE_DEFS_HH
#define DIR2B_PROTO_TABLE_DEFS_HH

#include "proto/table_engine.hh"

namespace dir2b
{

/** The two-bit directory scheme as a table ("two_bit_table"). */
const TransitionTable &twoBitTable();

/** The full-map directory scheme as a table ("full_map_table"). */
const TransitionTable &fullMapTable();

/** Directory MOESI, new protocol purely as data ("moesi"). */
const TransitionTable &moesiTable();

} // namespace dir2b

#endif // DIR2B_PROTO_TABLE_DEFS_HH
