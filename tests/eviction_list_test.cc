// Tests for the eviction-list kfunc API (Table 2): list CRUD, both
// list_iterate modes, placements, budgets, and a property test against a
// reference model.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/bpf/prog.h"
#include "src/cache_ext/eviction_list.h"
#include "src/util/rng.h"

namespace cache_ext {
namespace {

class EvictionListTest : public ::testing::Test {
 protected:
  EvictionListTest() : registry_(256), api_(&registry_) {}

  Folio* NewFolio() {
    folios_.push_back(std::make_unique<Folio>());
    Folio* folio = folios_.back().get();
    registry_.Insert(folio);
    return folio;
  }

  uint64_t MustCreateList() {
    auto list = api_.ListCreate();
    EXPECT_TRUE(list.ok());
    return *list;
  }

  FolioRegistry registry_;
  CacheExtApi api_;
  std::vector<std::unique_ptr<Folio>> folios_;
};

TEST_F(EvictionListTest, CreateAssignsDistinctIds) {
  const uint64_t a = MustCreateList();
  const uint64_t b = MustCreateList();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(api_.nr_lists(), 2u);
}

TEST_F(EvictionListTest, AddHeadAndTail) {
  const uint64_t list = MustCreateList();
  Folio* a = NewFolio();
  Folio* b = NewFolio();
  Folio* c = NewFolio();
  ASSERT_TRUE(api_.ListAdd(list, a, /*tail=*/true).ok());
  ASSERT_TRUE(api_.ListAdd(list, b, /*tail=*/true).ok());
  ASSERT_TRUE(api_.ListAdd(list, c, /*tail=*/false).ok());  // head
  EXPECT_EQ(*api_.ListSize(list), 3u);

  // Iterate head->tail; expect c, a, b.
  std::vector<Folio*> seen;
  IterOpts opts;
  opts.nr_scan = 10;
  ASSERT_TRUE(api_.ListIterate(list, opts, nullptr, [&seen](Folio* folio) {
                    seen.push_back(folio);
                    return IterVerdict::kSkip;
                  })
                  .ok());
  EXPECT_EQ(seen, (std::vector<Folio*>{c, a, b}));
}

TEST_F(EvictionListTest, AddRejectsUnregisteredFolio) {
  const uint64_t list = MustCreateList();
  Folio rogue;
  EXPECT_EQ(api_.ListAdd(list, &rogue, true).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(EvictionListTest, AddRejectsBadListId) {
  Folio* folio = NewFolio();
  EXPECT_EQ(api_.ListAdd(9999, folio, true).code(), ErrorCode::kNotFound);
  EXPECT_FALSE(api_.ListSize(9999).ok());
}

TEST_F(EvictionListTest, DoubleAddRejected) {
  const uint64_t list = MustCreateList();
  Folio* folio = NewFolio();
  ASSERT_TRUE(api_.ListAdd(list, folio, true).ok());
  EXPECT_EQ(api_.ListAdd(list, folio, true).code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(EvictionListTest, MoveAcrossLists) {
  const uint64_t a = MustCreateList();
  const uint64_t b = MustCreateList();
  Folio* folio = NewFolio();
  ASSERT_TRUE(api_.ListAdd(a, folio, true).ok());
  EXPECT_EQ(*api_.ListIdOf(folio), a);
  ASSERT_TRUE(api_.ListMove(b, folio, true).ok());
  EXPECT_EQ(*api_.ListIdOf(folio), b);
  EXPECT_EQ(*api_.ListSize(a), 0u);
  EXPECT_EQ(*api_.ListSize(b), 1u);
}

TEST_F(EvictionListTest, MoveUnlinkedFolioActsAsAdd) {
  const uint64_t list = MustCreateList();
  Folio* folio = NewFolio();
  ASSERT_TRUE(api_.ListMove(list, folio, true).ok());
  EXPECT_EQ(*api_.ListSize(list), 1u);
}

TEST_F(EvictionListTest, MoveToHeadReorders) {
  const uint64_t list = MustCreateList();
  Folio* a = NewFolio();
  Folio* b = NewFolio();
  ASSERT_TRUE(api_.ListAdd(list, a, true).ok());
  ASSERT_TRUE(api_.ListAdd(list, b, true).ok());
  ASSERT_TRUE(api_.ListMove(list, b, /*tail=*/false).ok());  // MRU-style
  std::vector<Folio*> seen;
  IterOpts opts;
  ASSERT_TRUE(api_.ListIterate(list, opts, nullptr, [&seen](Folio* folio) {
                    seen.push_back(folio);
                    return IterVerdict::kSkip;
                  })
                  .ok());
  EXPECT_EQ(seen, (std::vector<Folio*>{b, a}));
}

TEST_F(EvictionListTest, DelUnlinks) {
  const uint64_t list = MustCreateList();
  Folio* folio = NewFolio();
  ASSERT_TRUE(api_.ListAdd(list, folio, true).ok());
  ASSERT_TRUE(api_.ListDel(folio).ok());
  EXPECT_EQ(*api_.ListSize(list), 0u);
  EXPECT_EQ(*api_.ListIdOf(folio), 0u);
  EXPECT_EQ(api_.ListDel(folio).code(), ErrorCode::kFailedPrecondition);
}

TEST_F(EvictionListTest, IterateSimpleProposesUpToRequest) {
  const uint64_t list = MustCreateList();
  std::vector<Folio*> added;
  for (int i = 0; i < 10; ++i) {
    Folio* folio = NewFolio();
    ASSERT_TRUE(api_.ListAdd(list, folio, true).ok());
    added.push_back(folio);
  }
  EvictionCtx ctx;
  ctx.nr_candidates_requested = 3;
  IterOpts opts;
  ASSERT_TRUE(api_.ListIterate(list, opts, &ctx, [](Folio*) {
                    return IterVerdict::kEvict;
                  })
                  .ok());
  EXPECT_EQ(ctx.nr_candidates_proposed, 3u);
  EXPECT_EQ(ctx.candidates[0], added[0]);
  EXPECT_EQ(ctx.candidates[2], added[2]);
}

TEST_F(EvictionListTest, IterateStopsOnStopVerdict) {
  const uint64_t list = MustCreateList();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(api_.ListAdd(list, NewFolio(), true).ok());
  }
  int visited = 0;
  IterOpts opts;
  ASSERT_TRUE(api_.ListIterate(list, opts, nullptr, [&visited](Folio*) {
                    return ++visited < 2 ? IterVerdict::kSkip
                                         : IterVerdict::kStop;
                  })
                  .ok());
  EXPECT_EQ(visited, 2);
}

TEST_F(EvictionListTest, IterateRespectsNrScan) {
  const uint64_t list = MustCreateList();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(api_.ListAdd(list, NewFolio(), true).ok());
  }
  int visited = 0;
  IterOpts opts;
  opts.nr_scan = 4;
  ASSERT_TRUE(api_.ListIterate(list, opts, nullptr, [&visited](Folio*) {
                    ++visited;
                    return IterVerdict::kSkip;
                  })
                  .ok());
  EXPECT_EQ(visited, 4);
}

TEST_F(EvictionListTest, SkipMoveToTailRotates) {
  const uint64_t list = MustCreateList();
  Folio* a = NewFolio();
  Folio* b = NewFolio();
  ASSERT_TRUE(api_.ListAdd(list, a, true).ok());
  ASSERT_TRUE(api_.ListAdd(list, b, true).ok());
  IterOpts opts;
  opts.nr_scan = 1;
  opts.on_skip = IterPlacement::kMoveToTail;
  ASSERT_TRUE(api_.ListIterate(list, opts, nullptr, [](Folio*) {
                    return IterVerdict::kSkip;
                  })
                  .ok());
  // a rotated behind b.
  std::vector<Folio*> seen;
  IterOpts all;
  ASSERT_TRUE(api_.ListIterate(list, all, nullptr, [&seen](Folio* folio) {
                    seen.push_back(folio);
                    return IterVerdict::kSkip;
                  })
                  .ok());
  EXPECT_EQ(seen, (std::vector<Folio*>{b, a}));
}

TEST_F(EvictionListTest, SkipMoveToListMigrates) {
  const uint64_t small = MustCreateList();
  const uint64_t main_list = MustCreateList();
  Folio* a = NewFolio();
  ASSERT_TRUE(api_.ListAdd(small, a, true).ok());
  IterOpts opts;
  opts.on_skip = IterPlacement::kMoveToList;
  opts.dst_list_skip = main_list;  // S3-FIFO promotion
  ASSERT_TRUE(api_.ListIterate(small, opts, nullptr, [](Folio*) {
                    return IterVerdict::kSkip;
                  })
                  .ok());
  EXPECT_EQ(*api_.ListSize(small), 0u);
  EXPECT_EQ(*api_.ListSize(main_list), 1u);
  EXPECT_EQ(*api_.ListIdOf(a), main_list);
}

TEST_F(EvictionListTest, MoveToBadListLeavesInPlace) {
  const uint64_t list = MustCreateList();
  Folio* a = NewFolio();
  ASSERT_TRUE(api_.ListAdd(list, a, true).ok());
  IterOpts opts;
  opts.on_skip = IterPlacement::kMoveToList;
  opts.dst_list_skip = 424242;  // bounds-checked: bad destination ignored
  ASSERT_TRUE(api_.ListIterate(list, opts, nullptr, [](Folio*) {
                    return IterVerdict::kSkip;
                  })
                  .ok());
  EXPECT_EQ(*api_.ListSize(list), 1u);
}

TEST_F(EvictionListTest, NoFolioVisitedTwicePerIterate) {
  const uint64_t list = MustCreateList();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(api_.ListAdd(list, NewFolio(), true).ok());
  }
  std::map<Folio*, int> visits;
  IterOpts opts;
  opts.nr_scan = 100;  // more than the list size
  opts.on_skip = IterPlacement::kMoveToTail;  // rotation must not re-visit
  ASSERT_TRUE(api_.ListIterate(list, opts, nullptr, [&visits](Folio* folio) {
                    ++visits[folio];
                    return IterVerdict::kSkip;
                  })
                  .ok());
  for (const auto& [folio, count] : visits) {
    EXPECT_EQ(count, 1);
  }
  EXPECT_EQ(visits.size(), 6u);
}

TEST_F(EvictionListTest, BatchScoringSelectsLowestScores) {
  const uint64_t list = MustCreateList();
  std::map<Folio*, int64_t> scores;
  std::vector<Folio*> added;
  const int64_t score_values[] = {5, 1, 9, 3, 7, 2};
  for (const int64_t score : score_values) {
    Folio* folio = NewFolio();
    ASSERT_TRUE(api_.ListAdd(list, folio, true).ok());
    scores[folio] = score;
    added.push_back(folio);
  }
  EvictionCtx ctx;
  ctx.nr_candidates_requested = 3;
  IterOpts opts;
  opts.nr_scan = 100;
  ASSERT_TRUE(api_.ListIterateScore(list, opts, &ctx, [&scores](Folio* folio) {
                    return scores[folio];
                  })
                  .ok());
  ASSERT_EQ(ctx.nr_candidates_proposed, 3u);
  std::multiset<int64_t> proposed_scores;
  for (uint64_t i = 0; i < 3; ++i) {
    proposed_scores.insert(scores[ctx.candidates[i]]);
  }
  EXPECT_EQ(proposed_scores, (std::multiset<int64_t>{1, 2, 3}));
}

TEST_F(EvictionListTest, BatchScoringScansOnlyN) {
  const uint64_t list = MustCreateList();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(api_.ListAdd(list, NewFolio(), true).ok());
  }
  int scored = 0;
  EvictionCtx ctx;
  ctx.nr_candidates_requested = 2;
  IterOpts opts;
  opts.nr_scan = 5;  // N=5, C=2
  ASSERT_TRUE(api_.ListIterateScore(list, opts, &ctx, [&scored](Folio*) {
                    ++scored;
                    return 0;
                  })
                  .ok());
  EXPECT_EQ(scored, 5);
  EXPECT_EQ(ctx.nr_candidates_proposed, 2u);
}

TEST_F(EvictionListTest, BatchScoringRequiresCtx) {
  const uint64_t list = MustCreateList();
  IterOpts opts;
  EXPECT_EQ(api_.ListIterateScore(list, opts, nullptr, [](Folio*) {
                  return 0;
                })
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(EvictionListTest, HelperBudgetAbortsIteration) {
  const uint64_t list = MustCreateList();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(api_.ListAdd(list, NewFolio(), true).ok());
  }
  bpf::RunContext budget(10);  // tiny budget: iteration must abort
  IterOpts opts;
  opts.nr_scan = 100;
  const Status status = api_.ListIterate(
      list, opts, nullptr, [](Folio*) { return IterVerdict::kSkip; });
  EXPECT_EQ(status.code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(budget.aborted());
}

TEST_F(EvictionListTest, UnlinkForRemovalCleansAnyList) {
  const uint64_t list = MustCreateList();
  Folio* folio = NewFolio();
  ASSERT_TRUE(api_.ListAdd(list, folio, true).ok());
  api_.UnlinkForRemoval(folio);
  EXPECT_EQ(*api_.ListSize(list), 0u);
  // Folio not on any list: no-op.
  api_.UnlinkForRemoval(folio);
}

TEST_F(EvictionListTest, CurrentTaskDefaultsToZero) {
  EXPECT_EQ(api_.CurrentTask().pid, 0);
  EXPECT_EQ(api_.CurrentTask().tid, 0);
}

// Property test: random kfunc call sequences vs a reference model of
// std::deque per list.
class EvictionListPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvictionListPropertyTest, MatchesReferenceModel) {
  FolioRegistry registry(512);
  CacheExtApi api(&registry);
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 64; ++i) {
    folios.push_back(std::make_unique<Folio>());
    registry.Insert(folios.back().get());
  }
  std::vector<uint64_t> lists;
  std::map<uint64_t, std::deque<Folio*>> model;
  std::map<Folio*, uint64_t> folio_list;
  for (int i = 0; i < 3; ++i) {
    auto id = api.ListCreate();
    ASSERT_TRUE(id.ok());
    lists.push_back(*id);
    model[*id] = {};
  }

  Rng rng(GetParam());
  for (int step = 0; step < 5000; ++step) {
    Folio* folio = folios[rng.NextU64Below(folios.size())].get();
    const uint64_t list = lists[rng.NextU64Below(lists.size())];
    const bool tail = rng.NextBool(0.5);
    switch (rng.NextU64Below(4)) {
      case 0: {  // add
        const Status s = api.ListAdd(list, folio, tail);
        if (folio_list.count(folio) == 0) {
          ASSERT_TRUE(s.ok());
          if (tail) {
            model[list].push_back(folio);
          } else {
            model[list].push_front(folio);
          }
          folio_list[folio] = list;
        } else {
          ASSERT_FALSE(s.ok());
        }
        break;
      }
      case 1: {  // move
        ASSERT_TRUE(api.ListMove(list, folio, tail).ok());
        if (auto it = folio_list.find(folio); it != folio_list.end()) {
          auto& dq = model[it->second];
          dq.erase(std::find(dq.begin(), dq.end(), folio));
        }
        if (tail) {
          model[list].push_back(folio);
        } else {
          model[list].push_front(folio);
        }
        folio_list[folio] = list;
        break;
      }
      case 2: {  // del
        const Status s = api.ListDel(folio);
        if (auto it = folio_list.find(folio); it != folio_list.end()) {
          ASSERT_TRUE(s.ok());
          auto& dq = model[it->second];
          dq.erase(std::find(dq.begin(), dq.end(), folio));
          folio_list.erase(it);
        } else {
          ASSERT_FALSE(s.ok());
        }
        break;
      }
      case 3: {  // verify one list's full order
        std::vector<Folio*> seen;
        IterOpts opts;
        opts.nr_scan = 1000;
        ASSERT_TRUE(api.ListIterate(list, opts, nullptr,
                                    [&seen](Folio* f) {
                                      seen.push_back(f);
                                      return IterVerdict::kSkip;
                                    })
                        .ok());
        const auto& dq = model[list];
        ASSERT_EQ(seen.size(), dq.size());
        EXPECT_TRUE(std::equal(seen.begin(), seen.end(), dq.begin()));
        ASSERT_EQ(*api.ListSize(list), dq.size());
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvictionListPropertyTest,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace cache_ext
